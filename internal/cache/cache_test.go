package cache

import (
	"slices"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// rig builds a memory, bus and n small caches (64 data words, 4-way,
// 4-word blocks -> 4 sets) so that evictions are easy to force.
func rig(t *testing.T, n int, opts Options, proto Protocol) (*mem.Memory, *bus.Bus, []*Cache) {
	t.Helper()
	m := mem.New(mem.Layout{InstWords: 64, HeapWords: 1024, GoalWords: 256, SuspWords: 64, CommWords: 64})
	b := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: 4}, m)
	caches := make([]*Cache, n)
	for i := range caches {
		caches[i] = New(Config{
			SizeWords:   64,
			BlockWords:  4,
			Ways:        4,
			LockEntries: 4,
			Options:     opts,
			Protocol:    proto,
			VerifyDW:    true,
		}, i, b)
	}
	return m, b, caches
}

func heapBase(m *mem.Memory) word.Addr { return m.Bounds().HeapBase }

func TestReadMissFromMemoryBecomesEC(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(11))
	if got := cs[0].Read(a); got.IntVal() != 11 {
		t.Fatalf("read %v", got)
	}
	if st := cs[0].StateOf(a); st != EC {
		t.Errorf("state = %v, want EC", st)
	}
	if b.Stats().TotalCycles != 13 {
		t.Errorf("cycles = %d, want 13", b.Stats().TotalCycles)
	}
	// A hit costs nothing.
	cs[0].Read(a)
	if b.Stats().TotalCycles != 13 {
		t.Error("read hit generated bus traffic")
	}
	st := cs[0].Stats()
	if st.Hits[OpR] != 1 || st.Misses[OpR] != 1 || st.Refs[mem.AreaHeap][OpR] != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestReadSharingDowngradesToS(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(5))
	cs[0].Read(a) // EC
	pre := b.Stats().TotalCycles
	if got := cs[1].Read(a); got.IntVal() != 5 {
		t.Fatalf("read %v", got)
	}
	if b.Stats().TotalCycles-pre != 7 {
		t.Errorf("c2c cost = %d, want 7", b.Stats().TotalCycles-pre)
	}
	if cs[0].StateOf(a) != S || cs[1].StateOf(a) != S {
		t.Errorf("states %v/%v, want S/S", cs[0].StateOf(a), cs[1].StateOf(a))
	}
}

func TestDirtyTransferEntersSM(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Write(a, word.Int(42)) // miss -> FI -> EM
	if cs[0].StateOf(a) != EM {
		t.Fatalf("writer state %v", cs[0].StateOf(a))
	}
	if got := cs[1].Read(a); got.IntVal() != 42 {
		t.Fatalf("reader got %v", got)
	}
	// PIM keeps write-back ownership at the supplier: EM -> SM, and the
	// dirty data must NOT have been copied back to memory.
	if cs[0].StateOf(a) != SM {
		t.Errorf("supplier state %v, want SM", cs[0].StateOf(a))
	}
	if cs[1].StateOf(a) != S {
		t.Errorf("requester state %v, want S", cs[1].StateOf(a))
	}
	if m.Read(a).IntVal() == 42 {
		t.Error("transfer updated shared memory (Illinois behaviour, not PIM)")
	}
	if b.Stats().MemBusyCycles != 13-13+8 { // only PE0's original FI fetch
		t.Errorf("mem busy = %d", b.Stats().MemBusyCycles)
	}
}

func TestIllinoisCopiesBackOnTransfer(t *testing.T) {
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolIllinois)
	a := heapBase(m)
	cs[0].Write(a, word.Int(42))
	cs[1].Read(a)
	if m.Read(a).IntVal() != 42 {
		t.Error("Illinois transfer must update shared memory")
	}
	if cs[0].StateOf(a) != S || cs[1].StateOf(a) != S {
		t.Errorf("states %v/%v, want S/S", cs[0].StateOf(a), cs[1].StateOf(a))
	}
}

func TestIllinoisMemBusyExceedsPIM(t *testing.T) {
	run := func(proto Protocol) uint64 {
		m, b, cs := rig(t, 2, OptionsNone(), proto)
		a := heapBase(m)
		// Ping-pong a dirty block: writes alternate between PEs.
		for i := 0; i < 10; i++ {
			cs[i%2].Write(a, word.Int(int64(i)))
		}
		_ = m
		return b.Stats().MemBusyCycles
	}
	pim, ill := run(ProtocolPIM), run(ProtocolIllinois)
	if ill <= pim {
		t.Errorf("Illinois mem busy %d should exceed PIM %d", ill, pim)
	}
}

func TestWriteHitSharedInvalidates(t *testing.T) {
	m, b, cs := rig(t, 3, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(1))
	cs[0].Read(a)
	cs[1].Read(a)
	cs[2].Read(a) // all S
	pre := b.Stats().TotalCycles
	cs[0].Write(a, word.Int(2))
	if b.Stats().TotalCycles-pre != 2 {
		t.Errorf("write-hit-shared cost %d, want 2 (I)", b.Stats().TotalCycles-pre)
	}
	if cs[0].StateOf(a) != EM {
		t.Errorf("writer %v, want EM", cs[0].StateOf(a))
	}
	if cs[1].StateOf(a) != INV || cs[2].StateOf(a) != INV {
		t.Error("other copies survived the invalidation")
	}
	if got := cs[1].Read(a); got.IntVal() != 2 {
		t.Errorf("stale read %v after invalidation", got)
	}
}

func TestWriteHitExclusiveIsFree(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Read(a) // EC
	pre := b.Stats().TotalCycles
	cs[0].Write(a, word.Int(9))
	if b.Stats().TotalCycles != pre {
		t.Error("write hit to EC generated bus traffic")
	}
	if cs[0].StateOf(a) != EM {
		t.Errorf("state %v, want EM", cs[0].StateOf(a))
	}
}

func TestWriteMissInvalidatesDirtyRemote(t *testing.T) {
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Write(a, word.Int(1))
	cs[0].Write(a+1, word.Int(2))
	cs[1].Write(a, word.Int(3)) // FI: PE0's dirty copy supplies then dies
	if cs[0].StateOf(a) != INV {
		t.Error("supplier not invalidated by FI")
	}
	if cs[1].StateOf(a) != EM {
		t.Errorf("requester %v, want EM", cs[1].StateOf(a))
	}
	// The non-written word must have travelled with the dirty block.
	if got := cs[1].Read(a + 1); got.IntVal() != 2 {
		t.Errorf("word 1 = %v, want 2 (dirty data lost in transfer)", got)
	}
}

// fillSet evicts the block containing a from c by reading enough
// conflicting blocks to exhaust the set.
func fillSet(c *Cache, m *mem.Memory, a word.Addr) {
	sets := word.Addr(c.Config().Sets())
	bw := word.Addr(c.Config().BlockWords)
	stride := sets * bw
	for i := word.Addr(1); i <= word.Addr(c.Config().Ways); i++ {
		c.Read(a + i*stride)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m, b, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Write(a, word.Int(77)) // EM
	fillSet(cs[0], m, a)
	if cs[0].StateOf(a) != INV {
		t.Fatal("block not evicted; widen fillSet")
	}
	if m.Read(a).IntVal() != 77 {
		t.Error("dirty eviction lost the data")
	}
	if b.Stats().CountByPattern[bus.PatSwapInMemSwapOut] == 0 {
		t.Error("with-swap-out pattern never used")
	}
	if cs[0].Stats().SwapOuts == 0 {
		t.Error("swap-out not counted")
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	m, b, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Read(a) // EC, clean
	fillSet(cs[0], m, a)
	if b.Stats().CountByPattern[bus.PatSwapInMemSwapOut] != 0 {
		t.Error("clean eviction used the swap-out pattern")
	}
	if cs[0].Stats().SwapOuts != 0 {
		t.Error("clean eviction counted as swap-out")
	}
}

func TestLRUReplacement(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	stride := word.Addr(cs[0].Config().Sets() * cs[0].Config().BlockWords)
	// Fill the set: blocks 0..3.
	for i := word.Addr(0); i < 4; i++ {
		cs[0].Read(a + i*stride)
	}
	cs[0].Read(a) // touch block 0: block 1 is now LRU
	cs[0].Read(a + 4*stride)
	if cs[0].StateOf(a) == INV {
		t.Error("most-recently-used block was evicted")
	}
	if cs[0].StateOf(a+1*stride) != INV {
		t.Error("LRU block survived")
	}
}

// --- DW ---

func TestDirectWriteFresh(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsAll(), ProtocolPIM)
	a := heapBase(m) // block boundary
	pre := b.Stats().TotalCycles
	cs[0].DirectWrite(a, word.Int(1))
	if b.Stats().TotalCycles != pre {
		t.Errorf("fresh DW cost %d bus cycles, want 0", b.Stats().TotalCycles-pre)
	}
	if cs[0].StateOf(a) != EM {
		t.Errorf("state %v, want EM", cs[0].StateOf(a))
	}
	st := cs[0].Stats()
	if st.DWApplied != 1 || st.DWDegraded != 0 {
		t.Errorf("DW stats %+v", st)
	}
	// Subsequent writes to the same block are hits (degraded DW).
	cs[0].DirectWrite(a+1, word.Int(2))
	cs[0].DirectWrite(a+2, word.Int(3))
	if b.Stats().TotalCycles != pre {
		t.Error("in-block DWs generated traffic")
	}
	if got := cs[0].Read(a + 2); got.IntVal() != 3 {
		t.Errorf("read back %v", got)
	}
}

func TestDirectWriteMidBlockDegrades(t *testing.T) {
	m, b, cs := rig(t, 1, OptionsAll(), ProtocolPIM)
	a := heapBase(m) + 2 // not a boundary
	cs[0].DirectWrite(a, word.Int(5))
	if cs[0].Stats().DWDegraded != 1 || cs[0].Stats().DWApplied != 0 {
		t.Errorf("stats %+v", cs[0].Stats())
	}
	// Degraded DW is a W: fetch-on-write (13 cycles).
	if b.Stats().TotalCycles != 13 {
		t.Errorf("cycles %d, want 13", b.Stats().TotalCycles)
	}
}

func TestDirectWriteDisabledDegrades(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].DirectWrite(a, word.Int(5))
	if cs[0].Stats().DWApplied != 0 || cs[0].Stats().DWDegraded != 1 {
		t.Errorf("stats %+v", cs[0].Stats())
	}
}

func TestDirectWriteDirtyVictimSwapOutOnly(t *testing.T) {
	m, b, cs := rig(t, 1, OptionsAll(), ProtocolPIM)
	a := heapBase(m)
	stride := word.Addr(cs[0].Config().Sets() * cs[0].Config().BlockWords)
	// Dirty the whole set.
	for i := word.Addr(0); i < 4; i++ {
		cs[0].DirectWrite(a+i*stride, word.Int(int64(i)))
	}
	pre := b.Stats()
	cs[0].DirectWrite(a+4*stride, word.Int(99))
	st := b.Stats()
	if st.CountByPattern[bus.PatSwapOutOnly]-pre.CountByPattern[bus.PatSwapOutOnly] != 1 {
		t.Error("DW eviction did not use the swap-out-only pattern")
	}
	if st.TotalCycles-pre.TotalCycles != 5 {
		t.Errorf("cost %d, want 5", st.TotalCycles-pre.TotalCycles)
	}
	// The evicted block's data must be in memory.
	if m.Read(a).IntVal() != 0 {
		t.Errorf("victim word = %v, want 0", m.Read(a))
	}
}

func TestDirectWriteContractViolationPanics(t *testing.T) {
	m, _, cs := rig(t, 2, OptionsAll(), ProtocolPIM)
	a := heapBase(m)
	cs[1].Read(a) // remote copy exists
	defer func() {
		if recover() == nil {
			t.Error("DW over a remote copy did not panic under VerifyDW")
		}
	}()
	cs[0].DirectWrite(a, word.Int(1))
}

// --- ER / RP / RI ---

func TestExclusiveReadPurgesOnLastWord(t *testing.T) {
	m, b, cs := rig(t, 1, OptionsAll(), ProtocolPIM)
	// Goal area enables ER.
	g := m.Bounds().GoalBase
	for i := word.Addr(0); i < 4; i++ {
		cs[0].DirectWrite(g+i, word.Int(int64(i+1)))
	}
	pre := b.Stats().TotalCycles
	for i := word.Addr(0); i < 4; i++ {
		if got := cs[0].ExclusiveRead(g + i); got.IntVal() != int64(i+1) {
			t.Fatalf("word %d = %v", i, got)
		}
	}
	if b.Stats().TotalCycles != pre {
		t.Error("ER hits generated traffic")
	}
	if cs[0].StateOf(g) != INV {
		t.Error("block not purged after last-word ER")
	}
	st := cs[0].Stats()
	if st.ERPurge != 1 || st.ERDegraded != 3 {
		t.Errorf("ER stats purge=%d degraded=%d", st.ERPurge, st.ERDegraded)
	}
	if st.PurgedDirty != 1 {
		t.Errorf("dirty purge not counted: %+v", st)
	}
	// The purge avoided the swap-out: memory never saw the data, and no
	// swap-out was counted.
	if st.SwapOuts != 0 {
		t.Error("purged block was swapped out")
	}
}

func TestExclusiveReadActsAsReadInvalidate(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsAll(), ProtocolPIM)
	g := m.Bounds().GoalBase
	for i := word.Addr(0); i < 4; i++ {
		cs[0].DirectWrite(g+i, word.Int(int64(i+10)))
	}
	pre := b.Stats().TotalCycles
	// PE1 consumes the record with ER: first word is a miss to a remote
	// dirty block -> read-invalidate (case i), 7 cycles.
	if got := cs[1].ExclusiveRead(g); got.IntVal() != 10 {
		t.Fatalf("got %v", got)
	}
	if b.Stats().TotalCycles-pre != 7 {
		t.Errorf("case-i cost %d, want 7", b.Stats().TotalCycles-pre)
	}
	if cs[0].StateOf(g) != INV {
		t.Error("supplier not invalidated")
	}
	if cs[1].StateOf(g) != EM {
		t.Errorf("receiver %v, want EM (dirty supply, no copy-back)", cs[1].StateOf(g))
	}
	// Middle words hit; last word purges. Total extra traffic: zero.
	for i := word.Addr(1); i < 4; i++ {
		cs[1].ExclusiveRead(g + i)
	}
	if b.Stats().TotalCycles-pre != 7 {
		t.Error("record consumption cost more than one transfer")
	}
	if cs[1].StateOf(g) != INV {
		t.Error("receiver copy not purged")
	}
	if cs[1].Stats().ERInval != 1 {
		t.Errorf("ERInval = %d", cs[1].Stats().ERInval)
	}
	// After a full ER consumption NO cache holds the block: DW may reuse
	// the record without violating its contract.
	cs[1].DirectWrite(g, word.Int(1)) // would panic under VerifyDW otherwise
}

func TestExclusiveReadDisabledIsPlainRead(t *testing.T) {
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	g := m.Bounds().GoalBase
	m.Write(g+3, word.Int(8))
	if got := cs[0].ExclusiveRead(g + 3); got.IntVal() != 8 {
		t.Fatalf("got %v", got)
	}
	if cs[0].StateOf(g) == INV {
		t.Error("disabled ER purged the block")
	}
	if cs[0].Stats().ERDegraded != 1 {
		t.Error("degradation not counted")
	}
}

func TestReadPurgeHit(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsAll(), ProtocolPIM)
	g := m.Bounds().GoalBase
	cs[0].DirectWrite(g, word.Int(4))
	if got := cs[0].ReadPurge(g); got.IntVal() != 4 {
		t.Fatalf("got %v", got)
	}
	if cs[0].StateOf(g) != INV {
		t.Error("RP hit did not purge")
	}
	if cs[0].Stats().RPApplied != 1 {
		t.Error("RPApplied not counted")
	}
}

func TestReadPurgeMissRemoteNoInstall(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsAll(), ProtocolPIM)
	g := m.Bounds().GoalBase
	cs[0].DirectWrite(g, word.Int(6))
	pre := b.Stats().TotalCycles
	if got := cs[1].ReadPurge(g); got.IntVal() != 6 {
		t.Fatalf("got %v", got)
	}
	if b.Stats().TotalCycles-pre != 7 {
		t.Errorf("cost %d, want 7 (c2c, no victim)", b.Stats().TotalCycles-pre)
	}
	if cs[0].StateOf(g) != INV {
		t.Error("supplier not invalidated")
	}
	if cs[1].Holds(g) {
		t.Error("RP installed the block")
	}
}

func TestReadPurgeMissFromMemoryDegrades(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsAll(), ProtocolPIM)
	g := m.Bounds().GoalBase
	m.Write(g, word.Int(3))
	if got := cs[0].ReadPurge(g); got.IntVal() != 3 {
		t.Fatalf("got %v", got)
	}
	if !cs[0].Holds(g) {
		t.Error("memory-sourced RP should install like R")
	}
	if cs[0].Stats().RPDegraded != 1 {
		t.Error("degradation not counted")
	}
}

func TestReadInvalidateAvoidsLaterInvalidation(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsAll(), ProtocolPIM)
	c := m.Bounds().CommBase
	cs[0].Write(c, word.Int(1)) // message written by PE0
	pre := b.Stats()
	if got := cs[1].ReadInvalidate(c); got.IntVal() != 1 {
		t.Fatalf("got %v", got)
	}
	if cs[1].StateOf(c) != EM {
		t.Errorf("RI state %v, want EM", cs[1].StateOf(c))
	}
	// The rewrite is now bus-free.
	cs[1].Write(c, word.Int(2))
	post := b.Stats()
	if post.Commands[bus.CmdI] != pre.Commands[bus.CmdI] {
		t.Error("RI failed to avoid the invalidate command")
	}
	if cs[1].Stats().RIApplied != 1 {
		t.Error("RIApplied not counted")
	}
}

func TestReadInvalidateDisabledCostsInvalidation(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	c := m.Bounds().CommBase
	cs[0].Write(c, word.Int(1))
	cs[1].ReadInvalidate(c) // degrades to R: PE0 retains SM
	pre := b.Stats().Commands[bus.CmdI]
	cs[1].Write(c, word.Int(2)) // hit shared: needs I
	if b.Stats().Commands[bus.CmdI] != pre+1 {
		t.Error("expected an invalidate command without RI")
	}
}

// --- locks ---

func TestLockReadMissAcquires(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(30))
	w, ok := cs[0].LockRead(a)
	if !ok || w.IntVal() != 30 {
		t.Fatalf("LR = %v,%v", w, ok)
	}
	if !cs[0].HeldLock(a) {
		t.Error("lock not registered")
	}
	if cs[0].StateOf(a) != EC {
		t.Errorf("state %v, want EC", cs[0].StateOf(a))
	}
	if b.Stats().Commands[bus.CmdLK] != 1 {
		t.Error("LK not broadcast with the FI")
	}
}

func TestLockReadHitExclusiveIsFree(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Write(a, word.Int(2)) // EM
	pre := b.Stats().TotalCycles
	w, ok := cs[0].LockRead(a)
	if !ok || w.IntVal() != 2 {
		t.Fatal("LR failed")
	}
	if b.Stats().TotalCycles != pre {
		t.Error("LR hit-to-exclusive used the bus")
	}
	if cs[0].Stats().LRHitExclusive != 1 {
		t.Error("LRHitExclusive not counted")
	}
	cs[0].Unlock(a)
	if b.Stats().TotalCycles != pre {
		t.Error("U with no waiter used the bus")
	}
	if cs[0].Stats().UnlockNoWaiter != 1 {
		t.Error("UnlockNoWaiter not counted")
	}
}

func TestLockReadSharedHitTakesOwnership(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(1))
	cs[0].Read(a)
	cs[1].Read(a) // both S
	w, ok := cs[0].LockRead(a)
	if !ok || w.IntVal() != 1 {
		t.Fatal("LR failed")
	}
	if cs[0].StateOf(a) != EC {
		t.Errorf("state %v, want EC", cs[0].StateOf(a))
	}
	if cs[1].StateOf(a) != INV {
		t.Error("peer copy survived the LK+I")
	}
	if b.Stats().Commands[bus.CmdLK] != 1 || b.Stats().Commands[bus.CmdI] != 1 {
		t.Error("LK+I not issued")
	}
}

func TestLockConflictBusyWaitAndUnlockBroadcast(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	m.Write(a, word.Int(1))
	if _, ok := cs[0].LockRead(a); !ok {
		t.Fatal("PE0 LR failed")
	}
	// PE1 tries: miss -> FI+LK -> LH.
	if _, ok := cs[1].LockRead(a); ok {
		t.Fatal("conflicting LR succeeded")
	}
	if !cs[1].Blocked() || cs[1].BlockedOn() != a {
		t.Error("PE1 not busy-waiting")
	}
	if cs[1].HeldLock(a) {
		t.Error("failed LR registered a lock")
	}
	// PE0 unlocks: waiter exists -> UL broadcast, PE1 wakes.
	pre := b.Stats().Commands[bus.CmdUL]
	cs[0].UnlockWrite(a, word.Int(2))
	if b.Stats().Commands[bus.CmdUL] != pre+1 {
		t.Error("UL not broadcast despite waiter")
	}
	if cs[0].Stats().UnlockWaiter != 1 {
		t.Error("UnlockWaiter not counted")
	}
	if cs[1].Blocked() {
		t.Error("UL did not wake PE1")
	}
	// Retry succeeds and sees the unlocked value.
	w, ok := cs[1].LockRead(a)
	if !ok || w.IntVal() != 2 {
		t.Fatalf("retry LR = %v,%v", w, ok)
	}
	cs[1].Unlock(a)
}

func TestUnlockWriteStoresValue(t *testing.T) {
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].LockRead(a)
	cs[0].UnlockWrite(a, word.Int(123))
	if got := cs[1].Read(a); got.IntVal() != 123 {
		t.Errorf("peer read %v", got)
	}
	if cs[0].HeldLock(a) {
		t.Error("lock survived UW")
	}
}

func TestUnlockWriteAfterEviction(t *testing.T) {
	// A lock outlives its block's residency: UW must refetch and still
	// release correctly.
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].LockRead(a)
	fillSet(cs[0], m, a)
	if cs[0].Holds(a) {
		t.Fatal("block not evicted")
	}
	if !cs[0].HeldLock(a) {
		t.Fatal("lock lost with the block")
	}
	cs[0].UnlockWrite(a, word.Int(55))
	if got := cs[0].Read(a); got.IntVal() != 55 {
		t.Errorf("got %v", got)
	}
}

func TestLockedWordDeniesExclusiveGrantEndToEnd(t *testing.T) {
	// PE0 locks a word, loses the block to eviction; PE1 fetches the
	// block for a different word. PE1 must not get it exclusively, so
	// PE1's later LR on the locked word goes to the bus and busy-waits.
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].LockRead(a)
	fillSet(cs[0], m, a)
	cs[1].Read(a + 1)
	if st := cs[1].StateOf(a + 1); st.Exclusive() {
		t.Fatalf("PE1 granted %v over a remote lock", st)
	}
	if _, ok := cs[1].LockRead(a); ok {
		t.Fatal("double lock acquired")
	}
	if !cs[1].Blocked() {
		t.Error("PE1 should busy-wait")
	}
	cs[0].Unlock(a)
	if cs[1].Blocked() {
		t.Error("UL did not unblock PE1")
	}
	if _, ok := cs[1].LockRead(a); !ok {
		t.Error("retry failed after unlock")
	}
}

func TestWriterOverRemoteLockStaysSM(t *testing.T) {
	// A write miss into a block with a remote lock on another word must
	// settle in SM, never EM.
	m, _, cs := rig(t, 2, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].LockRead(a)
	fillSet(cs[0], m, a)
	cs[1].Write(a+1, word.Int(5))
	if st := cs[1].StateOf(a + 1); st != SM {
		t.Errorf("writer state %v, want SM", st)
	}
	cs[0].Unlock(a)
}

func TestDoubleLockPanics(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].LockRead(a)
	defer func() {
		if recover() == nil {
			t.Error("re-lock did not panic")
		}
	}()
	cs[0].LockRead(a)
}

func TestUnlockUnheldPanics(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	defer func() {
		if recover() == nil {
			t.Error("unmatched unlock did not panic")
		}
	}()
	cs[0].Unlock(heapBase(m))
}

// --- misc ---

func TestFlushWritesDirtyBlocks(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	a := heapBase(m)
	cs[0].Write(a, word.Int(64))
	cs[0].Flush()
	if m.Read(a).IntVal() != 64 {
		t.Error("flush lost dirty data")
	}
	if cs[0].Holds(a) {
		t.Error("flush left a valid line")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if good.Sets() != 256 {
		t.Errorf("default sets = %d, want 256 (paper: 256 columns)", good.Sets())
	}
	bad := good
	bad.BlockWords = 3
	if bad.Validate() == nil {
		t.Error("non-power-of-two block accepted")
	}
	bad = good
	bad.SizeWords = 1000
	if bad.Validate() == nil {
		t.Error("non-divisible size accepted")
	}
}

func TestDirectoryBitsMatchesPaper(t *testing.T) {
	// "a four-Kword cache is 190000 bits" (Section 4.4).
	bits := DefaultConfig().DirectoryBits()
	if bits < 180000 || bits > 200000 {
		t.Errorf("4Kword cache = %d bits, paper says ~190000", bits)
	}
}

func TestOptionsTable4Columns(t *testing.T) {
	h := OptionsHeap()
	if !h.Enabled(mem.AreaHeap, OptDW) || h.Enabled(mem.AreaGoal, OptDW) {
		t.Error("Heap column wrong")
	}
	g := OptionsGoal()
	if !g.Enabled(mem.AreaGoal, OptER) || !g.Enabled(mem.AreaGoal, OptRP) ||
		!g.Enabled(mem.AreaGoal, OptDW) || g.Enabled(mem.AreaHeap, OptDW) {
		t.Error("Goal column wrong")
	}
	c := OptionsComm()
	if !c.Enabled(mem.AreaComm, OptRI) || c.Enabled(mem.AreaComm, OptDW) {
		t.Error("Comm column wrong")
	}
	a := OptionsAll()
	if !a.Enabled(mem.AreaHeap, OptDW) || !a.Enabled(mem.AreaGoal, OptER) || !a.Enabled(mem.AreaComm, OptRI) {
		t.Error("All column wrong")
	}
}

// TestOptionSetsAreTable4 pins the table the commands, the harness and
// the facade read: Table 4's columns in order, each holding its
// constructor's value.
func TestOptionSetsAreTable4(t *testing.T) {
	want := []OptionSet{
		{"None", OptionsNone()},
		{"Heap", OptionsHeap()},
		{"Goal", OptionsGoal()},
		{"Comm", OptionsComm()},
		{"All", OptionsAll()},
	}
	if !slices.Equal(OptionSets, want) {
		t.Errorf("OptionSets = %v, want %v", OptionSets, want)
	}
}

func TestStateStrings(t *testing.T) {
	if EM.String() != "EM" || SM.String() != "SM" || INV.String() != "INV" {
		t.Error("state names")
	}
	if !EM.Dirty() || !SM.Dirty() || EC.Dirty() || S.Dirty() {
		t.Error("Dirty classification")
	}
	if !EM.Exclusive() || !EC.Exclusive() || SM.Exclusive() || S.Exclusive() {
		t.Error("Exclusive classification")
	}
	if OpLR.String() != "LR" || OpDW.String() != "DW" {
		t.Error("op names")
	}
	if LCK.String() != "LCK" || LWAIT.String() != "LWAIT" || EMP.String() != "EMP" {
		t.Error("lock state names")
	}
	// An unregistered protocol renders like the other enums' unknown
	// values, so a %+v of a bad config names no real protocol.
	if ProtocolDragon.String() != "dragon" || Protocol(9).String() != "protocol(9)" {
		t.Errorf("protocol names %q, %q; want dragon, protocol(9)", ProtocolDragon, Protocol(9))
	}
}

func TestWriteThroughProtocol(t *testing.T) {
	m, b, cs := rig(t, 2, OptionsAll(), ProtocolWriteThrough)
	a := heapBase(m)
	cs[0].Write(a, word.Int(5))
	// The store reached memory immediately.
	if m.Read(a).IntVal() != 5 {
		t.Fatal("write-through store did not reach memory")
	}
	if b.Stats().CountByPattern[bus.PatWordWrite] != 1 {
		t.Error("word-write pattern not used")
	}
	// Reads fill the cache; a second write updates both copies and
	// invalidates the peer.
	cs[0].Read(a)
	cs[1].Read(a)
	cs[0].Write(a, word.Int(6))
	if cs[1].Holds(a) {
		t.Error("peer copy survived a write-through store")
	}
	if got := cs[1].Read(a); got.IntVal() != 6 {
		t.Errorf("peer read %v", got)
	}
	// No block is ever dirty: evictions are silent.
	if cs[0].Stats().SwapOuts != 0 {
		t.Error("write-through cache swapped out")
	}
	// Optimized commands degrade.
	cs[0].DirectWrite(a+64, word.Int(1))
	cs[0].ExclusiveRead(a + 64)
	st := cs[0].Stats()
	if st.DWApplied != 0 || st.ERPurge != 0 {
		t.Error("optimized commands applied under write-through")
	}
}

func TestWriteThroughTrafficExceedsCopyBack(t *testing.T) {
	run := func(proto Protocol) uint64 {
		m, b, cs := rig(t, 2, OptionsNone(), proto)
		a := heapBase(m)
		// A write-heavy loop with locality: the copy-back cache absorbs
		// it; write-through pays the bus for every store.
		for i := 0; i < 200; i++ {
			cs[0].Write(a+word.Addr(i%16), word.Int(int64(i)))
		}
		_ = m
		return b.Stats().TotalCycles
	}
	wt, cb := run(ProtocolWriteThrough), run(ProtocolPIM)
	if wt <= 2*cb {
		t.Errorf("write-through (%d) should far exceed copy-back (%d)", wt, cb)
	}
}
