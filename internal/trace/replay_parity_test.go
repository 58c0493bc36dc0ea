package trace

import (
	"fmt"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// replayGenericRefs drives refs through the mem.Accessor interface, one
// method per op, as the live runtime does. It ignores Ref.Area: each
// accessor method classifies its own address.
func replayGenericRefs(refs []Ref, ports []mem.Accessor) error {
	for i, ref := range refs {
		port := ports[ref.PE()]
		a := ref.Addr()
		switch ref.Op() {
		case cache.OpR:
			port.Read(a)
		case cache.OpW:
			port.Write(a, 0)
		case cache.OpLR:
			if _, ok := port.LockRead(a); !ok {
				return fmt.Errorf("ref %d: LR %#x blocked during replay", i, a)
			}
		case cache.OpUW:
			port.UnlockWrite(a, 0)
		case cache.OpU:
			port.Unlock(a)
		case cache.OpDW:
			port.DirectWrite(a, 0)
		case cache.OpER:
			port.ExclusiveRead(a)
		case cache.OpRP:
			port.ReadPurge(a)
		case cache.OpRI:
			port.ReadInvalidate(a)
		default:
			return fmt.Errorf("ref %d: unknown op %d", i, ref.Op())
		}
	}
	return nil
}

// opaquePort hides a cache port behind an embedding.
type opaquePort struct{ mem.Accessor }

// TestReplayGenericParity pins the one replay loop — cache.Apply with
// the recorded area class — against the per-op accessor interface on a
// data-carrying machine: replays of the same trace, with and without
// the data plane, land on bit-identical statistics.
func TestReplayGenericParity(t *testing.T) {
	_, tr := traceCluster(t, testProgram, 2, cache.OptionsAll())
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}

	replay := func(generic, statsOnly bool) (bus.Stats, cache.Stats) {
		mcfg := machine.Config{
			PEs: tr.PEs, Layout: tr.Layout,
			Cache: cache.Config{SizeWords: 1 << 10, BlockWords: 4, Ways: 4,
				LockEntries: 4, Options: cache.OptionsAll(), VerifyDW: true, StatsOnly: statsOnly},
			Timing: bus.DefaultTiming(),
		}
		m := machine.New(mcfg)
		ports := make([]mem.Accessor, tr.PEs)
		for i := range ports {
			ports[i] = m.Port(i)
		}
		replay := Replay
		if generic {
			replay = func(tr *Trace, ports []mem.Accessor) error { return replayGenericRefs(tr.Refs, ports) }
		}
		if err := replay(tr, ports); err != nil {
			t.Fatalf("generic=%v statsOnly=%v: %v", generic, statsOnly, err)
		}
		return m.BusStats(), m.CacheStats()
	}

	genBus, genCache := replay(true, false)
	for _, statsOnly := range []bool{false, true} {
		bs, cs := replay(false, statsOnly)
		if bs != genBus {
			t.Errorf("statsOnly=%v: bus stats diverge\napply:   %+v\ngeneric: %+v", statsOnly, bs, genBus)
		}
		if cs != genCache {
			t.Errorf("statsOnly=%v: cache stats diverge\napply:   %+v\ngeneric: %+v", statsOnly, cs, genCache)
		}
	}

	// Replay drives caches only; any other port is refused up front.
	if _, err := NewChunkReplayer(1, []mem.Accessor{opaquePort{}}); err == nil || !strings.Contains(err.Error(), "caches only") {
		t.Errorf("non-cache port: %v, want a refusal", err)
	}
}
