package emulator

import (
	"fmt"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
)

// Cluster bundles a simulated machine with the KL1 runtime running on it.
type Cluster struct {
	Machine *machine.Machine
	Shared  *Shared
	Engines []*Engine
}

// NewCluster builds the machine, loads the image, and attaches one engine
// per PE.
func NewCluster(im *compile.Image, mcfg machine.Config, ecfg Config) (*Cluster, error) {
	m := machine.New(mcfg)
	sh, err := NewShared(im, m, ecfg)
	if err != nil {
		return nil, err
	}
	if ecfg.EnableGC {
		WireGC(sh, m)
	}
	engines := make([]*Engine, mcfg.PEs)
	for i := 0; i < mcfg.PEs; i++ {
		e, err := NewEngine(sh, i, m.Port(i))
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

// WireGC enables stop-and-copy collection on a shared state backed by
// the given machine: collections flush and invalidate every cache (the
// collector moves objects directly in memory) and assert that no word
// locks are held. Call before creating engines.
func WireGC(sh *Shared, m *machine.Machine) {
	sh.EnableGC(m.FlushAll, func() error {
		for i := 0; i < m.Config().PEs; i++ {
			if n := m.Cache(i).LocksInUse(); n != 0 {
				return fmt.Errorf("gc: PE %d holds %d locks", i, n)
			}
		}
		return nil
	})
}

// RunSource compiles and runs FGHC source on a fresh cluster; a
// convenience for tests, examples and the CLI.
func RunSource(src string, mcfg machine.Config, ecfg Config, maxSteps uint64) (*Cluster, Result, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, Result{}, fmt.Errorf("parse: %w", err)
	}
	im, err := compile.Compile(prog, word.NewTable())
	if err != nil {
		return nil, Result{}, fmt.Errorf("compile: %w", err)
	}
	cl, err := NewCluster(im, mcfg, ecfg)
	if err != nil {
		return nil, Result{}, err
	}
	res := cl.Run(maxSteps)
	return cl, res, nil
}
