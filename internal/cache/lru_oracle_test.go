package cache

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// lruModel is the reference set-associative LRU directory: per set, the
// resident blocks in most-recently-used-first order.
type lruModel struct {
	ways int
	sets [][]word.Addr
}

// access applies one reference to block blk of set s and reports
// whether it hit. A hit moves the block to the front, or with purge
// removes it (RP's read-purge, which leaves a hole); a miss installs the
// block at the front, evicting the least recently used one if the set
// is full.
func (m *lruModel) access(s int, blk word.Addr, purge bool) (hit bool) {
	l := m.sets[s]
	if i := slices.Index(l, blk); i >= 0 {
		l = slices.Delete(l, i, i+1)
		if !purge {
			l = slices.Insert(l, 0, blk)
		}
		m.sets[s] = l
		return true
	}
	if len(l) == m.ways {
		l = l[:len(l)-1]
	}
	m.sets[s] = slices.Insert(l, 0, blk)
	return false
}

// TestLRUOracleEveryWay drives random single-PE R/W/RP streams through
// caches of 1, 2, 3, 4 and 8 ways and checks every access against
// lruModel: hit or miss, and afterwards the set's resident blocks in
// LRU-clock order, which pins the evicted block and catches a hit
// resolved to the wrong frame. RP hits open holes in random ways, so
// hits land in every way position, with and without invalid frames
// before them.
func TestLRUOracleEveryWay(t *testing.T) {
	const sets, blockWords = 4, 4
	for _, ways := range []int{1, 2, 3, 4, 8} {
		layout := mem.Layout{InstWords: 64, HeapWords: 1024, GoalWords: 256, SuspWords: 64, CommWords: 64}
		m := mem.NewStatsOnly(layout)
		b := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: blockWords, StatsOnly: true}, m)
		var opts Options
		opts.PerArea[mem.AreaHeap] = OptRP
		c := New(Config{
			SizeWords: sets * ways * blockWords, BlockWords: blockWords, Ways: ways,
			LockEntries: 1, Options: opts, Protocol: ProtocolPIM, StatsOnly: true,
		}, 0, b)
		model := &lruModel{ways: ways, sets: make([][]word.Addr, sets)}
		wayHits := make([]int, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		pool := 3 * sets * ways // blocks, about 3× the frame count
		heap := m.Bounds().HeapBase
		for i := 0; i < 20000; i++ {
			blk := heap + word.Addr(rng.Intn(pool)*blockWords)
			a := blk + word.Addr(rng.Intn(blockWords))
			op := OpR
			switch r := rng.Intn(10); {
			case r < 3:
				op = OpW
			case r < 5:
				op = OpRP
			}
			s := int(blk/blockWords) % sets
			for w := 0; w < ways; w++ {
				if f := s*ways + w; c.state(f) != INV && c.base(f) == blk {
					wayHits[w]++
				}
			}
			hits := c.Stats().Hits[op]
			c.Apply(op, a, mem.AreaHeap)
			want := model.access(s, blk, op == OpRP)
			if got := c.Stats().Hits[op] > hits; got != want {
				t.Fatalf("%d ways, access %d (%v %#x): hit=%v, model says %v", ways, i, op, a, got, want)
			}
			if got := residentByRecency(c, s); !slices.Equal(got, model.sets[s]) {
				t.Fatalf("%d ways, access %d (%v %#x): set %d holds %#x by recency, model %#x",
					ways, i, op, a, s, got, model.sets[s])
			}
		}
		for w, n := range wayHits {
			if n == 0 {
				t.Errorf("%d ways: no hit in way %d", ways, w)
			}
		}
	}
}

// residentByRecency lists the blocks valid in set s, most recently used
// first, read straight from the tag and LRU planes (not through lookup).
func residentByRecency(c *Cache, s int) []word.Addr {
	frames := make([]int, 0, c.ways)
	for f := s * c.ways; f < (s+1)*c.ways; f++ {
		if c.state(f) != INV {
			frames = append(frames, f)
		}
	}
	slices.SortFunc(frames, func(x, y int) int { return cmp.Compare(c.lru[y], c.lru[x]) })
	blocks := make([]word.Addr, len(frames))
	for i, f := range frames {
		blocks[i] = c.base(f)
	}
	return blocks
}
