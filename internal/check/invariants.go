package check

import (
	"fmt"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/probe"
)

// checkInvariants runs the per-transition oracles over every watched
// block and lock word. It is called after every executed operation, so
// any violation is pinned to the op that introduced it.
// machine.CheckInvariants checks the cluster invariants; the two checked
// here need what only this package has: the generator's contracts and
// the model.
func (h *harness) checkInvariants(idx int, op Op) *Failure {
	if err := h.m.CheckInvariants(h.blocks); err != nil {
		return h.fail(idx, op, err.Error())
	}
	if msg := h.checkCleanCopies(); msg != "" {
		return h.fail(idx, op, msg)
	}
	if msg := h.checkLockOwners(); msg != "" {
		return h.fail(idx, op, msg)
	}
	return nil
}

// checkCleanCopies checks that a block with no dirty copy has every copy
// equal to shared memory: a stale clean copy is unreachable, because
// invalidations kill remote copies before a write commits and the
// generator purges only dead data. CheckInvariants has found all copies
// identical, so one holder speaks for all. Without a data plane there is
// nothing to compare.
func (h *harness) checkCleanCopies() string {
	if h.cfg.StatsOnly {
		return ""
	}
	for _, base := range h.blocks {
		holder := -1
		for pe := range h.m.Config().PEs {
			st := h.m.Cache(pe).StateOf(base)
			if st.Dirty() {
				holder = -1
				break
			}
			if st.Valid() && holder < 0 {
				holder = pe
			}
		}
		if holder < 0 {
			continue
		}
		for i := 0; i < BlockWords; i++ {
			a := base + word.Addr(i)
			v, _ := h.m.Cache(holder).PeekWord(a)
			if mv := h.m.Memory().Read(a); mv != v {
				return fmt.Sprintf("block %#x word %d: clean copies hold %v but memory holds %v",
					base, i, v, mv)
			}
		}
	}
	return ""
}

// checkLockOwners checks that each lock word's holder in the lock
// directories is the PE the model names (CheckInvariants has found at
// most one).
func (h *harness) checkLockOwners() string {
	for _, a := range lockPool() {
		holder := -1
		for pe := range h.m.Config().PEs {
			if h.m.Cache(pe).HeldLock(a) {
				holder = pe
			}
		}
		owner, locked := h.md.locks[a]
		switch {
		case locked && holder != owner:
			return fmt.Sprintf("lock %#x: model owner PE%d, directory holder PE%d", a, owner, holder)
		case !locked && holder >= 0:
			return fmt.Sprintf("lock %#x held by PE%d but free in the model", a, holder)
		}
	}
	return ""
}

// cycleAudit is a probe sink that accumulates the per-transaction spans
// the telemetry layer reports and checks them against the bus's own
// cycle accounting: total cycles must equal the sum of spans, and each
// pattern's count and cycle subtotal must match. Any pairing bug — a
// transaction accounted but not reported, or reported with the wrong
// span — breaks the equality.
type cycleAudit struct {
	cycles uint64
	byPat  [bus.NumPatterns]uint64
	cntPat [bus.NumPatterns]uint64
}

// Emit implements probe.Sink.
func (a *cycleAudit) Emit(e probe.Event) {
	if e.Kind != probe.KindBusEnd {
		return
	}
	a.cycles += uint64(e.N)
	if int(e.B) < len(a.byPat) {
		a.byPat[e.B] += uint64(e.N)
		a.cntPat[e.B]++
	}
}

func (a *cycleAudit) verify(st bus.Stats) error {
	if a.cycles != st.TotalCycles {
		return fmt.Errorf("probe spans sum to %d cycles, bus accounted %d",
			a.cycles, st.TotalCycles)
	}
	for p := range a.byPat {
		if a.byPat[p] != st.CyclesByPattern[p] {
			return fmt.Errorf("pattern %s: probe spans sum to %d cycles, bus accounted %d",
				bus.Pattern(p), a.byPat[p], st.CyclesByPattern[p])
		}
		if a.cntPat[p] != st.CountByPattern[p] {
			return fmt.Errorf("pattern %s: probe saw %d transactions, bus accounted %d",
				bus.Pattern(p), a.cntPat[p], st.CountByPattern[p])
		}
	}
	return nil
}
