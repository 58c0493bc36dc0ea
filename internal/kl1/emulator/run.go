package emulator

import (
	"fmt"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Cluster bundles a simulated machine with the KL1 runtime running on it.
type Cluster struct {
	Machine *machine.Machine
	Shared  *Shared
	Engines []*Engine
}

// NewCluster builds a live machine for mcfg, loads the image, and
// attaches one engine per PE. It is the one place a live run's machine
// is built. A configuration the machine or the runtime cannot run on is
// refused with an ErrMachineConfig error, before anything is built.
//
// wrap, when non-nil, wraps each PE's cache port before its engine is
// attached (a trace recorder's Port has this shape); sink, when non-nil,
// receives the whole cluster's events: bus, caches, machine and
// scheduler.
func NewCluster(im *compile.Image, mcfg machine.Config, ecfg Config, wrap func(pe int, port mem.Accessor) mem.Accessor, sink probe.Sink) (*Cluster, error) {
	if err := mcfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMachineConfig, err)
	}
	switch c := mcfg.Cache; {
	case c.StatsOnly:
		// machine.Run would panic; unification reads data values back.
		return nil, fmt.Errorf("%w: a live run needs data values, and a stats-only cache (trace replay only) holds none", ErrMachineConfig)
	case c.BlockWords > GoalRecordWords && c.Options.PerArea[mem.AreaGoal] != 0:
		// Goal records are created with DW and consumed with ER/RP, each
		// acting on a whole block. A block larger than a record would
		// span its neighbour: a DW installs the block without fetching
		// it, so the neighbour's free-list link is lost at write-back.
		return nil, fmt.Errorf("%w: goal-area optimized commands need blocks of at most %d words (one goal record), not %d",
			ErrMachineConfig, GoalRecordWords, c.BlockWords)
	}
	m := machine.New(mcfg)
	sh, err := newShared(im, m, ecfg)
	if err != nil {
		return nil, err
	}
	if ecfg.EnableGC {
		wireGC(sh, m)
	}
	if sink != nil {
		m.SetProbe(sink)
		sh.probe, sh.now = sink, m.Bus().ProbeClock
	}
	engines := make([]*Engine, mcfg.PEs)
	for i := range engines {
		port := mem.Accessor(m.Port(i))
		if wrap != nil {
			port = wrap(i, port)
		}
		e, err := newEngine(sh, i, port)
		if err != nil {
			return nil, err
		}
		engines[i] = e
		m.Attach(i, e)
	}
	return &Cluster{Machine: m, Shared: sh, Engines: engines}, nil
}

// Result summarizes a program run.
type Result struct {
	Output     string
	Failed     bool
	FailReason string
	// Floating counts goals still suspended at termination (program
	// deadlock if nonzero).
	Floating int64
	// Steps is the machine-step count; HitStepLimit reports an aborted
	// run. Rounds counts round-robin sweeps, the simulated wall-clock
	// proxy used for speedup figures.
	Steps        uint64
	Rounds       uint64
	HitStepLimit bool
	// Emu aggregates the per-PE engine statistics.
	Emu Stats
	// PerPE holds each engine's statistics.
	PerPE []Stats
}

// Run drives the cluster to completion (or maxSteps) and collects
// results.
func (cl *Cluster) Run(maxSteps uint64) Result {
	mres := cl.Machine.Run(maxSteps)
	res := Result{
		Output:       cl.Shared.Output(),
		Floating:     cl.Shared.Floating(),
		Steps:        mres.Steps,
		Rounds:       mres.Rounds,
		HitStepLimit: mres.HitStepLimit,
	}
	res.Failed, res.FailReason = cl.Shared.Failed()
	for _, e := range cl.Engines {
		st := e.Stats()
		res.PerPE = append(res.PerPE, st)
		res.Emu.Instructions += st.Instructions
		res.Emu.Reductions += st.Reductions
		res.Emu.Suspensions += st.Suspensions
		res.Emu.Resumptions += st.Resumptions
		res.Emu.Spawns += st.Spawns
		res.Emu.GoalsSent += st.GoalsSent
		res.Emu.GoalsStolen += st.GoalsStolen
	}
	return res
}

// wireGC switches a shared state backed by the given machine to
// semispace heaps (each PE's segment is halved) with stop-and-copy
// collection: collections flush and invalidate every cache (the
// collector moves objects directly in memory) and assert that no word
// locks are held. Call before creating engines.
func wireGC(sh *Shared, m *machine.Machine) {
	sh.gc.enabled = true
	sh.gc.flushCaches = m.FlushAll
	sh.gc.checkLocks = func() error {
		for i := 0; i < m.Config().PEs; i++ {
			if n := m.Cache(i).LocksInUse(); n != 0 {
				return fmt.Errorf("gc: PE %d holds %d locks", i, n)
			}
		}
		return nil
	}
}

// RunSource compiles and runs FGHC source on a fresh cluster; a
// convenience for tests, examples and the CLI.
func RunSource(src string, mcfg machine.Config, ecfg Config, maxSteps uint64) (*Cluster, Result, error) {
	im, err := compile.Source(src)
	if err != nil {
		return nil, Result{}, err
	}
	cl, err := NewCluster(im, mcfg, ecfg, nil, nil)
	if err != nil {
		return nil, Result{}, err
	}
	return cl, cl.Run(maxSteps), nil
}
