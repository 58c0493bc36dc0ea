package cache

import (
	"fmt"
	"sort"
	"strings"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Transition-table derivation.
//
// The paper refers to Matsumoto's ICOT TR-327 for "the complete state
// transition tables of the PIM cache protocol". This file reconstructs
// those tables empirically: it drives a small two-cache system into every
// reachable local state under every remote-context scenario, applies each
// processor operation, and records the resulting local state and bus
// commands. The result is both documentation (cmd/pimtable prints it) and
// a regression artifact (a golden test pins every row).

// TransitionRow is one derived protocol transition.
type TransitionRow struct {
	// Start is the local cache's state for the block before the access.
	Start State
	// Remote describes the other cache's copy: "-" none, or a state name.
	Remote string
	// Op is the processor operation applied (with its applicability
	// conditions satisfied; DW at a fresh block boundary, ER at a
	// non-final word on miss etc. are exercised by dedicated scenarios).
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

// DeriveTransitions computes the protocol transition table for the given
// protocol by direct experiment: one two-cache system per scenario and
// operation.
func DeriveTransitions(proto Protocol) []TransitionRow {
	// The scenario grid is the cross product of the protocol's registered
	// state set with itself ("-" meaning no remote copy), so a protocol's
	// table automatically covers exactly the states it declares (MOESI's
	// O, write-through's clean subset, ...). Combinations the protocol
	// cannot actually reach are weeded out by construct-and-verify in
	// deriveOne: the scenario builder re-checks the states it produced
	// and drops the cell when the protocol refuses the configuration.
	type scenario struct {
		local  State
		remote string // "-" for no remote copy, or a state name
	}
	states := proto.Impl().States()
	var scenarios []scenario
	for _, l := range states {
		scenarios = append(scenarios, scenario{l, "-"})
		for _, r := range states {
			if r != INV {
				scenarios = append(scenarios, scenario{l, r.String()})
			}
		}
	}
	ops := []string{"R", "W", "DW", "ER", "RP", "RI", "LR"}

	var rows []TransitionRow
	for _, sc := range scenarios {
		for _, op := range ops {
			if row, ok := deriveOne(proto, sc.local, sc.remote, op); ok {
				rows = append(rows, row)
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
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

// deriveOne prepares the scenario and applies the op on PE0.
func deriveOne(proto Protocol, local State, remote, op string) (TransitionRow, bool) {
	layout := mem.Layout{InstWords: 64, HeapWords: 4096, GoalWords: 256, SuspWords: 64, CommWords: 64}
	m := mem.New(layout)
	b := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: 4}, m)
	var opts Options
	// Enable every optimized command in the heap area so the table shows
	// their genuine transitions.
	opts.PerArea[mem.AreaHeap] = OptAll
	cfg := Config{SizeWords: 64, BlockWords: 4, Ways: 4, LockEntries: 2,
		Options: opts, Protocol: proto}
	c0 := New(cfg, 0, b)
	c1 := New(cfg, 1, b)
	a := m.Bounds().HeapBase
	m.Write(a, word.Int(1))

	// Recipes are written in terms of the PIM state names; protocols that
	// rename the dirty-shared owner state (MOESI's O) reuse the SM
	// recipes, and the final verification below still checks the literal
	// requested states, so a recipe that lands elsewhere drops the cell.
	normLocal := local
	if normLocal == O {
		normLocal = SM
	}
	normRemote := remote
	if normRemote == "O" {
		normRemote = "SM"
	}

	// Build the starting configuration. Orders of operations are chosen
	// so the last action leaves exactly the desired states.
	set := func() bool {
		switch {
		case normLocal == INV && normRemote == "-":
		case normLocal == INV && normRemote == "S":
			c1.Read(a)
			c0.Read(a)
			c0.SnoopInvalidateSelf(a) // drop only the local copy
			if c1.StateOf(a) != S {
				// Reading downgraded c1 to S; keep it.
				return c1.StateOf(a) == S
			}
		case normLocal == INV && normRemote == "EC":
			c1.Read(a)
		case normLocal == INV && normRemote == "EM":
			c1.Write(a, word.Int(2))
		case normLocal == INV && normRemote == "SM":
			c1.Write(a, word.Int(2))
			c0.Read(a) // c1 -> SM, c0 -> S
			c0.SnoopInvalidateSelf(a)
		case normLocal == S && normRemote == "-":
			c1.Read(a)
			c0.Read(a) // both S
			c1.SnoopInvalidateSelf(a)
		case normLocal == S && normRemote == "S":
			c1.Read(a)
			c0.Read(a)
		case normLocal == S && normRemote == "SM":
			c1.Write(a, word.Int(2))
			c0.Read(a)
		case normLocal == SM && normRemote == "-":
			c0.Write(a, word.Int(2))
			c1.Read(a) // c0 SM, c1 S
			c1.SnoopInvalidateSelf(a)
		case normLocal == SM && normRemote == "S":
			c0.Write(a, word.Int(2))
			c1.Read(a)
		case normLocal == EC && normRemote == "-":
			c0.Read(a)
		case normLocal == EM && normRemote == "-":
			c0.Write(a, word.Int(2))
		default:
			return false
		}
		return c0.StateOf(a) == local && remoteName(c1, a) == remote
	}
	if !set() {
		return TransitionRow{}, false
	}
	b.ResetStats()
	pre := b.Stats()

	switch op {
	case "R":
		c0.Read(a)
	case "W":
		c0.Write(a, word.Int(9))
	case "DW":
		// DW's genuine form needs a fresh block; in-place it degrades, so
		// only the INV/- scenario shows the allocation-without-fetch.
		if local != INV || remote != "-" {
			return TransitionRow{}, false
		}
		c0.DirectWrite(a, word.Int(9))
	case "ER":
		c0.ExclusiveRead(a + 3) // last word of the block: the purge case
	case "RP":
		c0.ReadPurge(a)
	case "RI":
		c0.ReadInvalidate(a)
	case "LR":
		if _, ok := c0.LockRead(a); ok {
			defer c0.Unlock(a)
		}
	}
	post := b.Stats()
	return TransitionRow{
		Start:     local,
		Remote:    remote,
		Op:        op,
		End:       c0.StateOf(a),
		RemoteEnd: remoteName(c1, a),
		BusOps:    busOps(&pre, &post),
		Cycles:    post.TotalCycles - pre.TotalCycles,
	}, true
}

func remoteName(c *Cache, a word.Addr) string {
	st := c.StateOf(a)
	if st == INV {
		return "-"
	}
	return st.String()
}

func busOps(pre, post *bus.Stats) string {
	var parts []string
	for cmd := bus.Command(0); cmd < bus.NumCommands; cmd++ {
		if n := post.Commands[cmd] - pre.Commands[cmd]; n > 0 {
			if n == 1 {
				parts = append(parts, cmd.String())
			} else {
				parts = append(parts, fmt.Sprintf("%s x%d", cmd, n))
			}
		}
	}
	if post.CountByPattern[bus.PatWordWrite] > pre.CountByPattern[bus.PatWordWrite] {
		parts = append(parts, "WT")
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "+")
}

// SnoopInvalidateSelf drops this cache's copy of a block without touching
// the rest of the system; used only to construct transition-table
// scenarios and tests.
func (c *Cache) SnoopInvalidateSelf(a word.Addr) {
	if f := c.lookup(a); f >= 0 {
		c.drop(f, probe.ReasonSnoopInval)
	}
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
