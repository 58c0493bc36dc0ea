package machine

import (
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

func smallConfig(pes int) Config {
	return Config{
		PEs:    pes,
		Layout: mem.Layout{InstWords: 64, HeapWords: 1024, GoalWords: 256, SuspWords: 64, CommWords: 64},
		Cache: cache.Config{
			SizeWords: 64, BlockWords: 4, Ways: 4, LockEntries: 4,
			Options: cache.OptionsAll(),
		},
		Timing: bus.DefaultTiming(),
	}
}

// scriptProc runs a fixed list of closures, one per step.
type scriptProc struct {
	steps []func()
	pos   int
	fail  bool
}

func (p *scriptProc) Step() Status {
	if p.fail {
		return StatusFailed
	}
	if p.pos >= len(p.steps) {
		return StatusHalted
	}
	p.steps[p.pos]()
	p.pos++
	return StatusRunning
}

func TestRunRoundRobinInterleaves(t *testing.T) {
	m := New(smallConfig(2))
	var order []int
	m.Attach(0, &scriptProc{steps: []func(){
		func() { order = append(order, 0) },
		func() { order = append(order, 0) },
	}})
	m.Attach(1, &scriptProc{steps: []func(){
		func() { order = append(order, 1) },
		func() { order = append(order, 1) },
	}})
	res := m.Run(0)
	if res.Failed || res.HitStepLimit {
		t.Fatalf("result %+v", res)
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	// Steps counts the two halting steps too.
	if res.Steps != 6 {
		t.Errorf("steps = %d, want 6", res.Steps)
	}
}

func TestRunFailureAborts(t *testing.T) {
	m := New(smallConfig(2))
	m.Attach(0, &scriptProc{fail: true})
	m.Attach(1, &scriptProc{steps: []func(){func() {}}})
	res := m.Run(0)
	if !res.Failed {
		t.Error("failure not reported")
	}
}

func TestRunStepLimit(t *testing.T) {
	m := New(smallConfig(1))
	forever := &scriptProc{}
	forever.steps = []func(){func() { forever.pos = -1 }} // loop forever
	m.Attach(0, forever)
	res := m.Run(10)
	if !res.HitStepLimit || res.Steps != 10 {
		t.Errorf("result %+v", res)
	}
}

func TestRunSkipsBusyWaitingPE(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Memory().Bounds().HeapBase
	p0steps := 0
	// PE0 locks a, runs a while, unlocks.
	m.Attach(0, &scriptProc{steps: []func(){
		func() { m.Port(0).LockRead(a); p0steps++ },
		func() { p0steps++ },
		func() { m.Port(0).UnlockWrite(a, word.Int(7)); p0steps++ },
	}})
	// PE1 tries to lock a; its first attempt busy-waits, the machine
	// skips it until the UL arrives, then it retries successfully.
	got := word.Word(0)
	var p1 *scriptProc
	p1 = &scriptProc{steps: []func(){
		func() {
			w, ok := m.Port(1).LockRead(a)
			if !ok {
				p1.pos-- // retry this step when unblocked
				return
			}
			got = w
			m.Port(1).Unlock(a)
		},
	}}
	m.Attach(1, p1)
	res := m.Run(100)
	if res.Failed || res.HitStepLimit {
		t.Fatalf("result %+v", res)
	}
	if got.IntVal() != 7 {
		t.Errorf("PE1 read %v, want 7", got)
	}
	if m.Cache(1).Stats().BusyWaits == 0 {
		t.Error("no busy wait recorded")
	}
}

func TestRunDeadlockPanics(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Memory().Bounds().HeapBase
	// PE0 takes the lock and then never unlocks; PE1 waits forever. When
	// PE0 halts, only the blocked PE1 remains: deadlock.
	m.Attach(0, &scriptProc{steps: []func(){
		func() { m.Port(0).LockRead(a) },
	}})
	var p1 *scriptProc
	p1 = &scriptProc{steps: []func(){
		func() {
			if _, ok := m.Port(1).LockRead(a); !ok {
				p1.pos--
			}
		},
	}}
	m.Attach(1, p1)
	defer func() {
		if recover() == nil {
			t.Error("deadlock did not panic")
		}
	}()
	m.Run(0)
}

func TestRunMissingProcessorPanics(t *testing.T) {
	m := New(smallConfig(2))
	m.Attach(0, &scriptProc{})
	defer func() {
		if recover() == nil {
			t.Error("missing processor did not panic")
		}
	}()
	m.Run(0)
}

func TestFlushAllAndVerifyCoherence(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Memory().Bounds().HeapBase
	m.Attach(0, &scriptProc{steps: []func(){
		func() { m.Port(0).Write(a, word.Int(5)) },
	}})
	m.Attach(1, &scriptProc{steps: []func(){
		func() { _ = m.Port(1).Read(a) },
	}})
	m.Run(0)
	addrs := []word.Addr{a}
	if err := m.CheckInvariants(addrs); err != nil {
		t.Fatalf("coherence: %v", err)
	}
	// The checker runs CheckInvariants after every operation; its
	// passing path must stay allocation-free.
	if n := testing.AllocsPerRun(10, func() { _ = m.CheckInvariants(addrs) }); n != 0 {
		t.Errorf("CheckInvariants allocates %v times per passing call", n)
	}
	m.FlushAll()
	if m.Memory().Read(a).IntVal() != 5 {
		t.Error("flush lost data")
	}
}

func TestStatsAggregation(t *testing.T) {
	m := New(smallConfig(2))
	a := m.Memory().Bounds().HeapBase
	m.Attach(0, &scriptProc{steps: []func(){
		func() { m.Port(0).Write(a, word.Int(1)) },
	}})
	m.Attach(1, &scriptProc{steps: []func(){
		func() { _ = m.Port(1).Read(a + 64) },
	}})
	m.Run(0)
	cs := m.CacheStats()
	if cs.RefsByOp(cache.OpW) != 1 || cs.RefsByOp(cache.OpR) != 1 {
		t.Errorf("aggregated refs: W=%d R=%d", cs.RefsByOp(cache.OpW), cs.RefsByOp(cache.OpR))
	}
	if m.BusStats().TotalCycles == 0 {
		t.Error("no bus cycles accounted")
	}
	m.ResetStats()
	after := m.CacheStats()
	if m.BusStats().TotalCycles != 0 || after.TotalRefs() != 0 {
		t.Error("reset incomplete")
	}
}

func TestDefaultConfigIsPaperBase(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PEs != 8 || cfg.Cache.SizeWords != 4<<10 || cfg.Cache.BlockWords != 4 ||
		cfg.Cache.Ways != 4 || cfg.Timing.MemCycles != 8 || cfg.Timing.WidthWords != 1 {
		t.Errorf("default config deviates from the paper: %+v", cfg)
	}
}
