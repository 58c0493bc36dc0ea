package bus

import (
	"testing"

	"pimcache/internal/kl1/word"
)

// notifySnooper is a cache stand-in that keeps the bus presence filter
// current, the way the real cache does through BlockInstalled/BlockDropped.
type notifySnooper struct {
	bus    *Bus
	pe     int
	words  int
	blocks map[word.Addr][]word.Word
	dirty  map[word.Addr]bool
	snoops int
	invals int
}

func (n *notifySnooper) base(a word.Addr) word.Addr { return a &^ word.Addr(n.words-1) }

func (n *notifySnooper) install(base word.Addr, data []word.Word, dirty bool) {
	n.blocks[base] = append([]word.Word(nil), data...)
	if dirty {
		n.dirty[base] = true
	}
	n.bus.BlockInstalled(n.pe, base)
}

func (n *notifySnooper) drop(base word.Addr) {
	delete(n.blocks, base)
	delete(n.dirty, base)
	n.bus.BlockDropped(n.pe, base)
}

func (n *notifySnooper) SnoopFetch(a word.Addr, inval bool) ([]word.Word, bool, bool, bool, bool) {
	n.snoops++
	base := n.base(a)
	data, ok := n.blocks[base]
	if !ok {
		return nil, false, false, false, false
	}
	dirty := n.dirty[base]
	if inval {
		n.drop(base)
		return data, true, true, dirty, false
	}
	return data, true, true, dirty, true
}

func (n *notifySnooper) SnoopUpdate(a word.Addr, w word.Word) (bool, bool) {
	base := n.base(a)
	data, ok := n.blocks[base]
	if !ok {
		return false, false
	}
	data[a-base] = w
	return true, true
}

func (n *notifySnooper) SnoopInvalidate(a word.Addr) bool {
	n.invals++
	if _, ok := n.blocks[n.base(a)]; ok {
		wasDirty := n.dirty[n.base(a)]
		n.drop(n.base(a))
		return wasDirty
	}
	return false
}

func (n *notifySnooper) Holds(a word.Addr) bool { _, ok := n.blocks[n.base(a)]; return ok }

// notifyLockUnit mirrors the real lock directory's LockAcquired/LockReleased
// notifications.
type notifyLockUnit struct {
	bus     *Bus
	pe      int
	locked  map[word.Addr]bool
	checks  int
	unlocks int
}

func (n *notifyLockUnit) lock(a word.Addr) { n.locked[a] = true; n.bus.LockAcquired(n.pe) }

func (n *notifyLockUnit) unlock(a word.Addr) { delete(n.locked, a); n.bus.LockReleased(n.pe) }

func (n *notifyLockUnit) CheckLocked(a word.Addr) bool { n.checks++; return n.locked[a] }

func (n *notifyLockUnit) LocksInBlock(base word.Addr, words int) bool {
	n.checks++
	for a := range n.locked {
		if a >= base && a < base+word.Addr(words) {
			return true
		}
	}
	return false
}

func (n *notifyLockUnit) ObserveUnlock(word.Addr) { n.unlocks++ }

func newFilterBus(t *testing.T, peers int, disable bool) (*Bus, []*notifySnooper, []*notifyLockUnit) {
	t.Helper()
	b := New(Config{Timing: DefaultTiming(), BlockWords: 4, DisableFilters: disable}, testMemory())
	snoops := make([]*notifySnooper, peers)
	locks := make([]*notifyLockUnit, peers)
	for i := 0; i < peers; i++ {
		snoops[i] = &notifySnooper{bus: b, pe: i, words: 4, blocks: map[word.Addr][]word.Word{}, dirty: map[word.Addr]bool{}}
		locks[i] = &notifyLockUnit{bus: b, pe: i, locked: map[word.Addr]bool{}}
		b.Attach(i, snoops[i], locks[i])
	}
	return b, snoops, locks
}

func block4(v int64) []word.Word {
	return []word.Word{word.Int(v), word.Int(v + 1), word.Int(v + 2), word.Int(v + 3)}
}

// TestFilteredFetchVisitsOnlyHolders pins the tentpole behaviour: with the
// presence filter on, a fetch snoops only the PEs that actually hold the
// block.
func TestFilteredFetchVisitsOnlyHolders(t *testing.T) {
	b, snoops, _ := newFilterBus(t, 8, false)
	base := b.Memory().Bounds().HeapBase
	snoops[5].install(base, block4(70), false)

	res := b.Fetch(0, base+2, false, false, false)
	if !res.FromCache || res.Data[2] != word.Int(72) {
		t.Fatalf("fetch did not return holder data: %+v", res)
	}
	for i, s := range snoops {
		want := 0
		if i == 5 {
			want = 1
		}
		if s.snoops != want {
			t.Errorf("PE %d snooped %d times, want %d", i, s.snoops, want)
		}
	}
	// The unfiltered scan must agree with the filter after the transfer.
	if got, want := b.HolderMask(base), b.ScanHolders(base); got != want {
		t.Errorf("HolderMask = %b, ScanHolders = %b", got, want)
	}
}

// TestFilteredInvalidateVisitsOnlyHolders checks the invalidate path skips
// non-holders and drops the presence bits of the holders it visits.
func TestFilteredInvalidateVisitsOnlyHolders(t *testing.T) {
	b, snoops, _ := newFilterBus(t, 8, false)
	base := b.Memory().Bounds().HeapBase
	snoops[2].install(base, block4(10), false)
	snoops[6].install(base, block4(10), false)

	if hit, _ := b.Invalidate(1, base, false); hit {
		t.Fatal("invalidate reported lock hit on lock-free system")
	}
	for i, s := range snoops {
		want := 0
		if i == 2 || i == 6 {
			want = 1
		}
		if s.invals != want {
			t.Errorf("PE %d saw %d invalidations, want %d", i, s.invals, want)
		}
	}
	if m := b.HolderMask(base); m != 0 {
		t.Errorf("presence mask %b after full invalidation, want 0", m)
	}
}

// TestDirtySupplierWins pins the Bus.fetch arbitration rule the simplified
// dirty-supplier branch must preserve: when several caches respond H, the
// (unique) modified copy is the one delivered, regardless of responder
// order, and every holder still responds. The fakes deliberately hold
// divergent data — impossible under coherence — to make the choice visible.
func TestDirtySupplierWins(t *testing.T) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"filtered", false}, {"unfiltered", true}} {
		t.Run(mode.name, func(t *testing.T) {
			b, snoops, _ := newFilterBus(t, 4, mode.disable)
			base := b.Memory().Bounds().HeapBase
			snoops[1].install(base, block4(100), false) // clean, responds first
			snoops[2].install(base, block4(200), true)  // dirty: must win
			snoops[3].install(base, block4(300), false) // clean, responds after

			res := b.Fetch(0, base, false, false, false)
			if !res.FromCache || !res.SupplierDirty || !res.Shared {
				t.Fatalf("unexpected result flags: %+v", res)
			}
			for i := 0; i < 4; i++ {
				if res.Data[i] != word.Int(int64(200+i)) {
					t.Fatalf("word %d = %v, want dirty supplier's %v", i, res.Data[i], word.Int(int64(200+i)))
				}
			}
			if got := b.Stats().Commands[CmdH]; got != 3 {
				t.Errorf("H responses = %d, want 3 (every holder answers)", got)
			}
		})
	}
}

// TestFilteredRemoteHolder checks the one-map-probe RemoteHolder agrees
// with the polling implementation.
func TestFilteredRemoteHolder(t *testing.T) {
	b, snoops, _ := newFilterBus(t, 4, false)
	base := b.Memory().Bounds().HeapBase
	if b.RemoteHolder(0, base) {
		t.Error("remote holder reported on empty system")
	}
	snoops[3].install(base, block4(1), false)
	if !b.RemoteHolder(0, base+3) {
		t.Error("remote holder missed")
	}
	// The requester's own copy must not count.
	if b.RemoteHolder(3, base) {
		t.Error("requester's own copy reported as remote")
	}
	snoops[3].drop(base)
	if b.RemoteHolder(0, base) {
		t.Error("stale remote holder after drop")
	}
}

// TestLockFilterSkipsIdlePEs checks lock polls short-circuit when no
// remote PE holds any lock, and otherwise visit only PEs with nonzero
// held-lock counts.
func TestLockFilterSkipsIdlePEs(t *testing.T) {
	b, _, locks := newFilterBus(t, 8, false)
	base := b.Memory().Bounds().HeapBase

	// No locks anywhere: the poll must not reach any directory.
	b.Fetch(0, base, false, false, false)
	for i, lu := range locks {
		if lu.checks != 0 {
			t.Errorf("PE %d polled %d times on lock-free system", i, lu.checks)
		}
	}

	// PE 5 takes a lock: polls reach PE 5 only (and never the requester).
	locks[5].lock(base + 1)
	if got := b.TotalLockCount(); got != 1 {
		t.Fatalf("TotalLockCount = %d, want 1", got)
	}
	res := b.Fetch(0, base+1, true, false, false)
	if !res.LockHit {
		t.Fatal("fetch of remotely locked word did not draw LH")
	}
	for i, lu := range locks {
		if i == 5 {
			if lu.checks == 0 {
				t.Error("lock-holding PE was never polled")
			}
		} else if lu.checks != 0 {
			t.Errorf("idle PE %d polled %d times", i, lu.checks)
		}
	}

	// The holder itself sees no poll for its own request.
	locks[5].checks = 0
	if b.Fetch(5, base+1, true, false, false).LockHit {
		t.Error("requester's own lock drew LH")
	}
	if locks[5].checks != 0 {
		t.Error("requester polled its own directory")
	}

	locks[5].unlock(base + 1)
	if got := b.TotalLockCount(); got != 0 {
		t.Errorf("TotalLockCount = %d after release, want 0", got)
	}
}

// TestUnlockBroadcastUnfiltered pins that UL reaches every PE even with
// filters on: busy-waiters hold no locks and no copy of the block, so no
// filter may prune the broadcast.
func TestUnlockBroadcastUnfiltered(t *testing.T) {
	b, _, locks := newFilterBus(t, 6, false)
	base := b.Memory().Bounds().HeapBase
	b.Unlock(2, base)
	for i, lu := range locks {
		want := 1
		if i == 2 {
			want = 0
		}
		if lu.unlocks != want {
			t.Errorf("PE %d observed %d unlocks, want %d", i, lu.unlocks, want)
		}
	}
}

// TestLockReleaseUnderflowPanics pins the filter's bookkeeping guard.
func TestLockReleaseUnderflowPanics(t *testing.T) {
	b, _, _ := newFilterBus(t, 2, false)
	defer func() {
		if recover() == nil {
			t.Error("lock release underflow did not panic")
		}
	}()
	b.LockReleased(1)
}

// TestAttachBeyondMaxPEsPanics pins the 64-PE holder-mask limit.
func TestAttachBeyondMaxPEsPanics(t *testing.T) {
	b := New(Config{Timing: DefaultTiming(), BlockWords: 4}, testMemory())
	for i := 0; i < MaxPEs; i++ {
		b.Attach(i, &fakeSnooper{data: make([]word.Word, 4)}, &fakeLockUnit{locked: map[word.Addr]bool{}})
	}
	defer func() {
		if recover() == nil {
			t.Error("attaching PE 64 did not panic")
		}
	}()
	b.Attach(MaxPEs, &fakeSnooper{}, &fakeLockUnit{})
}

// TestFetchZeroAllocs pins the acceptance criterion: Bus.fetch performs no
// heap allocations on either the cache-to-cache or the memory-supply path
// (the block rides the reusable bus-owned buffer).
func TestFetchZeroAllocs(t *testing.T) {
	b, snoops, _ := newFilterBus(t, 4, false)
	heap := b.Memory().Bounds().HeapBase
	snoops[1].install(heap, block4(500), false)
	c2cAddr := heap
	memAddr := heap + 64

	if avg := testing.AllocsPerRun(200, func() {
		res := b.Fetch(0, c2cAddr, false, false, false)
		if !res.FromCache {
			t.Fatal("expected cache-to-cache supply")
		}
	}); avg != 0 {
		t.Errorf("cache-to-cache fetch allocates %.1f per run, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		res := b.Fetch(0, memAddr, false, false, false)
		if res.FromCache {
			t.Fatal("expected memory supply")
		}
	}); avg != 0 {
		t.Errorf("memory-supply fetch allocates %.1f per run, want 0", avg)
	}
}

// TestFilterAgreesWithScanAcrossOps drives a mixed sequence of installs,
// fetches, invalidations and drops and cross-checks the presence filter
// against the unfiltered scan after every operation.
func TestFilterAgreesWithScanAcrossOps(t *testing.T) {
	b, snoops, _ := newFilterBus(t, 8, false)
	heap := b.Memory().Bounds().HeapBase
	bases := []word.Addr{heap, heap + 4, heap + 64, heap + 68}
	check := func(step string) {
		t.Helper()
		for _, base := range bases {
			if got, want := b.HolderMask(base), b.ScanHolders(base); got != want {
				t.Fatalf("%s: HolderMask(%d) = %b, ScanHolders = %b", step, base, got, want)
			}
		}
	}

	snoops[0].install(bases[0], block4(1), false)
	snoops[3].install(bases[0], block4(1), false)
	snoops[3].install(bases[1], block4(2), true)
	check("installs")

	b.Fetch(1, bases[0], false, false, false) // F: holders retain
	check("shared fetch")

	b.Fetch(2, bases[1], true, false, false) // FI: holder drops
	check("fetch-invalidate")

	b.Invalidate(0, bases[0], false) // I: remote copies drop
	check("invalidate")

	snoops[0].drop(bases[0]) // eviction
	check("evict")

	b.WordWrite(4, bases[2]+1, word.Int(9)) // write-through store, no holders
	check("word-write")
}
