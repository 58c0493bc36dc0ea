package machine

import (
	"testing"

	"pimcache/internal/kl1/word"
)

// contenderProc repeatedly lock-increments a shared counter word,
// exercising LH responses, LWAIT transitions, UL broadcasts, and machine
// skipping of busy-waiting PEs.
type contenderProc struct {
	m     *Machine
	pe    int
	addr  word.Addr
	left  int
	state int // 0 = want lock, 1 = have lock (write+unlock next step)
	val   word.Word
}

func (p *contenderProc) Step() Status {
	if p.left == 0 {
		return StatusHalted
	}
	port := p.m.Port(p.pe)
	switch p.state {
	case 0:
		w, ok := port.LockRead(p.addr)
		if !ok {
			return StatusRunning // busy-wait; machine will skip us
		}
		p.val = w
		p.state = 1
		return StatusRunning
	default:
		port.UnlockWrite(p.addr, word.Int(p.val.IntVal()+1))
		p.state = 0
		p.left--
		return StatusRunning
	}
}

// TestLockContentionStress has eight PEs perform 200 lock-increments each
// on one shared word: the final value proves every critical section was
// atomic, and lock statistics prove real contention happened.
func TestLockContentionStress(t *testing.T) {
	m := New(smallConfig(8))
	a := m.Memory().Bounds().HeapBase
	m.Memory().Write(a, word.Int(0))
	const per = 200
	for i := 0; i < 8; i++ {
		m.Attach(i, &contenderProc{m: m, pe: i, addr: a, left: per})
	}
	res := m.Run(0)
	if res.Failed || res.HitStepLimit {
		t.Fatalf("run failed: %+v", res)
	}
	m.FlushAll()
	if got := m.Memory().Read(a).IntVal(); got != 8*per {
		t.Fatalf("counter = %d, want %d (lost updates!)", got, 8*per)
	}
	cs := m.CacheStats()
	if cs.BusyWaits == 0 {
		t.Error("no lock contention observed")
	}
	if cs.UnlockWaiter == 0 {
		t.Error("no UL broadcasts despite contention")
	}
	if err := m.CheckInvariants([]word.Addr{a}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if m.Cache(i).LocksInUse() != 0 {
			t.Errorf("PE %d leaked a lock", i)
		}
	}
}

// TestTwoLockOrdering interleaves two contended locks without deadlock
// (the machine panics on lock deadlock, so completion is the assertion).
func TestTwoLockOrdering(t *testing.T) {
	m := New(smallConfig(4))
	a := m.Memory().Bounds().HeapBase
	b := a + 64
	m.Memory().Write(a, word.Int(0))
	m.Memory().Write(b, word.Int(0))
	for i := 0; i < 4; i++ {
		addr := a
		if i%2 == 1 {
			addr = b
		}
		m.Attach(i, &contenderProc{m: m, pe: i, addr: addr, left: 100})
	}
	res := m.Run(0)
	if res.Failed {
		t.Fatal("failed")
	}
	m.FlushAll()
	if m.Memory().Read(a).IntVal() != 200 || m.Memory().Read(b).IntVal() != 200 {
		t.Errorf("counters %d/%d, want 200/200",
			m.Memory().Read(a).IntVal(), m.Memory().Read(b).IntVal())
	}
}
