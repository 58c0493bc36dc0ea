package machine

import (
	"fmt"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// smallSynthLayout keeps the synthetic streams inside a footprint a few
// hundred times the cache size, maximizing conflict misses in the tiny
// direct-mapped caches below.
func smallSynthLayout() mem.Layout {
	return mem.Layout{InstWords: 1 << 10, HeapWords: 16 << 10,
		GoalWords: 4 << 10, SuspWords: 1 << 10, CommWords: 1 << 10}
}

// applyRef drives one recorded reference through its PE's cache.
func applyRef(c *cache.Cache, r trace.Ref) error {
	switch r.Op {
	case cache.OpR:
		c.Read(r.Addr)
	case cache.OpW:
		c.Write(r.Addr, 0)
	case cache.OpLR:
		if _, ok := c.LockRead(r.Addr); !ok {
			return fmt.Errorf("LR %#x blocked", r.Addr)
		}
	case cache.OpUW:
		c.UnlockWrite(r.Addr, 0)
	case cache.OpU:
		c.Unlock(r.Addr)
	case cache.OpDW:
		c.DirectWrite(r.Addr, 0)
	case cache.OpER:
		c.ExclusiveRead(r.Addr)
	case cache.OpRP:
		c.ReadPurge(r.Addr)
	case cache.OpRI:
		c.ReadInvalidate(r.Addr)
	default:
		return fmt.Errorf("unknown op %d", r.Op)
	}
	return nil
}

// TestFilterBookkeepingUnderEvictionPressure replays conflict-heavy
// synthetic streams through tiny direct-mapped caches and runs
// CheckInvariants after every single operation: among them, the holder
// mask of the touched block must always equal the ground-truth poll of
// every cache, and the per-PE lock counts must always equal each lock
// directory's in-use count. A periodic full sweep covers blocks evicted
// as conflict victims (which the touched-block check alone would miss
// going stale).
func TestFilterBookkeepingUnderEvictionPressure(t *testing.T) {
	sc := synth.Config{
		Layout: smallSynthLayout(),
		PEs:    8,
		Events: 40_000,
		Seed:   7,
	}
	if testing.Short() {
		sc.Events = 8_000
	}
	streams := []struct {
		name string
		gen  func(synth.Config) *trace.Trace
	}{
		{"ORParallel", synth.ORParallel},
		{"MessageRing", synth.MessageRing},
		{"SeqProlog", func(c synth.Config) *trace.Trace { c.PEs = 1; return synth.SeqProlog(c) }},
	}
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			tr := s.gen(sc)
			m := New(Config{
				PEs:    sc.PEs,
				Layout: sc.Layout,
				Cache: cache.Config{
					SizeWords: 64, BlockWords: 4, Ways: 1, LockEntries: 4,
					Options: cache.OptionsAll(), VerifyDW: true,
				},
				Timing: bus.DefaultTiming(),
			})
			seen := map[word.Addr]bool{}
			var bases []word.Addr
			for i, ref := range tr.Refs {
				if err := applyRef(m.Cache(int(ref.PE)), ref); err != nil {
					t.Fatalf("ref %d: %v", i, err)
				}
				if base := ref.Addr &^ 3; !seen[base] {
					seen[base] = true
					bases = append(bases, base)
				}
				if err := m.CheckInvariants([]word.Addr{ref.Addr}); err != nil {
					t.Fatalf("ref %d (%v %#x): %v", i, ref.Op, ref.Addr, err)
				}
				// Conflict evictions drop blocks other than the touched
				// one; sweep every block the stream has ever referenced.
				if i%512 == 511 || i == len(tr.Refs)-1 {
					if err := m.CheckInvariants(bases); err != nil {
						t.Fatalf("ref %d: sweep: %v", i, err)
					}
				}
			}

			// The filters-off twin must land on identical statistics.
			twin := New(Config{
				PEs:    sc.PEs,
				Layout: sc.Layout,
				Cache: cache.Config{
					SizeWords: 64, BlockWords: 4, Ways: 1, LockEntries: 4,
					Options: cache.OptionsAll(), VerifyDW: true,
					DisableBusFilters: true,
				},
				Timing: bus.DefaultTiming(),
			})
			for i, ref := range tr.Refs {
				if err := applyRef(twin.Cache(int(ref.PE)), ref); err != nil {
					t.Fatalf("twin ref %d: %v", i, err)
				}
			}
			if m.BusStats() != twin.BusStats() {
				t.Errorf("bus stats diverge under eviction pressure\nfiltered:   %+v\nunfiltered: %+v",
					m.BusStats(), twin.BusStats())
			}
			if m.CacheStats() != twin.CacheStats() {
				t.Errorf("cache stats diverge under eviction pressure\nfiltered:   %+v\nunfiltered: %+v",
					m.CacheStats(), twin.CacheStats())
			}
		})
	}
}
