package cache

import (
	"fmt"
	"sort"
	"strings"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// Transition-table derivation.
//
// The paper refers to Matsumoto's ICOT TR-327 for "the complete state
// transition tables of the PIM cache protocol". This file reconstructs
// those tables from the state machine itself: a breadth-first search
// over a two-cache system finds every (PE0, PE1) state pair the protocol
// can reach for one block, and each pair, rebuilt from its path on a
// fresh system, starts one row per processor operation on PE0. The
// result is both documentation (cmd/pimtable prints it) and a regression
// artifact (a golden test pins every row).

// TransitionRow is one derived protocol transition.
type TransitionRow struct {
	// Start is the local cache's state for the block before the access.
	Start State
	// Remote describes the other cache's copy: "-" none, or a state name.
	Remote string
	// Op is the processor operation applied (ER at the block's last
	// word; DW only from the empty pair, where it allocates).
	Op string
	// End is the local state afterwards.
	End State
	// RemoteEnd is the other cache's state afterwards.
	RemoteEnd string
	// BusOps summarizes the bus commands issued ("-" for none).
	BusOps string
	// Cycles is the bus cost of the access at base parameters.
	Cycles uint64
}

// searchMoves are the state search's steps, tried in this order on PE0
// and then on PE1: a read, a write and an eviction. Evicting is Flush,
// since the caches hold only the one block. A path step s runs move
// s%len(searchMoves) on PE s/len(searchMoves).
var searchMoves = [...]func(c *Cache, a word.Addr){
	func(c *Cache, a word.Addr) { c.Read(a) },
	func(c *Cache, a word.Addr) { c.Write(a, word.Int(2)) },
	func(c *Cache, a word.Addr) { c.Flush() },
}

// rowOps are the operations PE0 runs from each reachable pair. DW
// allocates without fetching only at a fresh block, so it runs from the
// empty pair alone; ER reads the block's last word, the purge case.
var rowOps = [...]struct {
	name string
	run  func(c *Cache, a word.Addr)
}{
	{"R", func(c *Cache, a word.Addr) { c.Read(a) }},
	{"W", func(c *Cache, a word.Addr) { c.Write(a, word.Int(9)) }},
	{"DW", func(c *Cache, a word.Addr) { c.DirectWrite(a, word.Int(9)) }},
	{"ER", func(c *Cache, a word.Addr) { c.ExclusiveRead(a + 3) }},
	{"RP", func(c *Cache, a word.Addr) { c.ReadPurge(a) }},
	{"RI", func(c *Cache, a word.Addr) { c.ReadInvalidate(a) }},
	{"LR", func(c *Cache, a word.Addr) { c.LockRead(a) }},
}

// statePair is the block's state in PE0's and PE1's cache.
type statePair [2]State

// twoCaches is the derivation's machine: two caches sharing one heap
// block at a.
type twoCaches struct {
	b *bus.Bus
	c [2]*Cache
	a word.Addr
}

// newTwoCaches builds a fresh two-cache system under proto and runs the
// search path on it.
func newTwoCaches(proto Protocol, path []int) twoCaches {
	layout := mem.Layout{InstWords: 64, HeapWords: 4096, GoalWords: 256, SuspWords: 64, CommWords: 64}
	m := mem.New(layout)
	b := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: 4}, m)
	var opts Options
	// Enable every optimized command in the heap area so the table shows
	// their genuine transitions.
	opts.PerArea[mem.AreaHeap] = OptAll
	cfg := Config{SizeWords: 64, BlockWords: 4, Ways: 4, LockEntries: 2,
		Options: opts, Protocol: proto}
	s := twoCaches{b: b, c: [2]*Cache{New(cfg, 0, b), New(cfg, 1, b)}, a: m.Bounds().HeapBase}
	m.Write(s.a, word.Int(1))
	for _, step := range path {
		searchMoves[step%len(searchMoves)](s.c[step/len(searchMoves)], s.a)
	}
	return s
}

func (s twoCaches) pair() statePair {
	return statePair{s.c[0].StateOf(s.a), s.c[1].StateOf(s.a)}
}

// DeriveTransitions computes the protocol transition table for the given
// protocol by direct experiment. A breadth-first search from two empty
// caches keeps the first path that reaches each state pair, so the table
// covers exactly the pairs the protocol can reach; each row rebuilds its
// pair from that path on a fresh system and applies one operation.
func DeriveTransitions(proto Protocol) []TransitionRow {
	paths := map[statePair][]int{{}: nil}
	reached := []statePair{{}}
	for i := 0; i < len(reached); i++ {
		from := paths[reached[i]]
		for step := range 2 * len(searchMoves) {
			path := append(from[:len(from):len(from)], step)
			p := newTwoCaches(proto, path).pair()
			if _, seen := paths[p]; !seen {
				paths[p] = path
				reached = append(reached, p)
			}
		}
	}

	var rows []TransitionRow
	for _, p := range reached {
		for _, op := range rowOps {
			if op.name == "DW" && p != (statePair{}) {
				continue
			}
			s := newTwoCaches(proto, paths[p])
			s.b.ResetStats()
			op.run(s.c[0], s.a)
			st := s.b.Stats()
			rows = append(rows, TransitionRow{
				Start:     p[0],
				Remote:    remoteName(p[1]),
				Op:        op.name,
				End:       s.c[0].StateOf(s.a),
				RemoteEnd: remoteName(s.c[1].StateOf(s.a)),
				BusOps:    busOps(&st),
				Cycles:    st.TotalCycles,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Start != rows[j].Start {
			return rows[i].Start < rows[j].Start
		}
		if rows[i].Remote != rows[j].Remote {
			return rows[i].Remote < rows[j].Remote
		}
		return rows[i].Op < rows[j].Op
	})
	return rows
}

func remoteName(st State) string {
	if st == INV {
		return "-"
	}
	return st.String()
}

func busOps(st *bus.Stats) string {
	var parts []string
	for cmd := bus.Command(0); cmd < bus.NumCommands; cmd++ {
		if n := st.Commands[cmd]; n > 0 {
			if n == 1 {
				parts = append(parts, cmd.String())
			} else {
				parts = append(parts, fmt.Sprintf("%s x%d", cmd, n))
			}
		}
	}
	if st.CountByPattern[bus.PatWordWrite] > 0 {
		parts = append(parts, "WT")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// FormatTransitions renders the derived table.
func FormatTransitions(rows []TransitionRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-7s %-4s %-6s %-7s %-12s %s\n",
		"state", "remote", "op", "state'", "remote'", "bus", "cycles")
	sb.WriteString(strings.Repeat("-", 56) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %-7s %-4s %-6s %-7s %-12s %d\n",
			r.Start, r.Remote, r.Op, r.End, r.RemoteEnd, r.BusOps, r.Cycles)
	}
	return sb.String()
}
