// Package bench reproduces the paper's evaluation: it runs the four KL1
// benchmarks on the simulated PIM cluster and regenerates every table
// (1-5) and figure (1-3) of Section 4, plus the in-text experiments
// (two-word bus, optimization detail, Illinois comparison).
//
// The harness follows the paper's methodology: execution-driven emulation
// produces per-benchmark reference streams; configuration sweeps replay
// the recorded stream against different cache organizations (the stream
// is configuration-independent — see package trace).
package bench

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/par"
	"pimcache/internal/probe"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// Options configures a collection run.
type Options struct {
	// Quick selects reduced benchmark scales (seconds instead of
	// minutes).
	Quick bool
	// PEs is the cluster size for the main experiments (paper: 8).
	PEs int
	// PESweep lists the cluster sizes for Figure 3.
	PESweep []int
	// BlockSizes lists block sizes (words) for Figure 1.
	BlockSizes []int
	// Capacities lists cache sizes (words) for Figure 2.
	Capacities []int
	// Associativities lists way counts for the Section 4.3 ablation
	// (paper: two-way costs ~18% more traffic than four-way; direct
	// mapped significantly more).
	Associativities []int
	// SkipSweeps omits the Figure 1/2 sweeps and extras (for table-only
	// runs).
	SkipSweeps bool
	// Benchmarks restricts the set (nil = all four).
	Benchmarks []string
	// Progress, when non-nil, receives progress lines. Writes are
	// serialized and line-atomic even when jobs run concurrently.
	Progress io.Writer
	// Jobs bounds how many simulations (live runs and trace replays)
	// execute concurrently: 0 means one per GOMAXPROCS, 1 runs one
	// benchmark (and holds one trace) at a time. Every value produces
	// identical results — jobs share only read-only traces, and results
	// are assembled from the replay table, never by completion order.
	Jobs int
	// Phases, when non-nil, collects per-phase wall times (live runs,
	// replays) for the run manifest. Nil disables timing at zero cost —
	// every obs handle is nil-safe.
	Phases *obs.Phases
	// Metrics, when non-nil, receives simulator self-metrics (replayed
	// references, jobs run) for the run manifest. Nil disables them.
	Metrics *obs.Registry
	// Context, when non-nil, bounds the run: once it is done, pending
	// jobs are dropped and Collect returns the context's error. Running
	// simulations finish their current unit first (a live run, or the
	// current replay), so cancellation is prompt but never leaves a
	// half-assembled result in Data — Collect either returns a complete
	// dataset or an error.
	Context context.Context
}

// ctx resolves the run context, never nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// DefaultOptions mirrors the paper's evaluation.
func DefaultOptions() Options {
	return Options{
		PEs:             8,
		PESweep:         []int{1, 2, 4, 8},
		BlockSizes:      []int{1, 2, 4, 8, 16},
		Capacities:      []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10},
		Associativities: []int{1, 2, 4, 8},
	}
}

// quickScales are reduced workloads for fast iterations.
var quickScales = map[string]int{"Tri": 7, "Semi": 128, "Puzzle": 4, "Pascal": 12, "BUP": 10, "PuzzleVec": 4}

// refHints are measured reference counts (8 PEs, all opts) at the scales
// the harness actually records at — each benchmark's quick, small and
// default scale — padded ~15% for PE-count and load-balance variation.
// They seed the trace recorder's capacity so recording a multi-million
// reference stream does not repeatedly regrow and copy its backing array.
var refHints = map[string]map[int]int{
	"Tri":       {6: 300_000, 7: 1_750_000, 8: 17_500_000},
	"Semi":      {64: 1_460_000, 128: 6_850_000, 256: 34_100_000},
	"Puzzle":    {2: 81_000, 4: 1_170_000, 5: 4_120_000},
	"Pascal":    {3: 201_000, 12: 548_000, 48: 2_110_000},
	"BUP":       {6: 118_000, 10: 489_000, 14: 1_390_000},
	"PuzzleVec": {2: 90_000, 4: 1_060_000, 5: 3_510_000},
}

// refHint estimates the reference-stream length for a benchmark run, or 0
// when the scale has no measurement (the recorder then grows on demand).
func refHint(name string, scale int) int {
	return refHints[name][scale]
}

// ScaleFor returns the scale a benchmark runs at under the options.
func (o Options) ScaleFor(b programs.Benchmark) int {
	if o.Quick {
		if s, ok := quickScales[b.Name]; ok {
			return s
		}
		return b.SmallScale
	}
	return b.DefaultScale
}

// BaseCache returns the paper's base cache (4Kword, 4-word blocks,
// 4-way) with the given optimized-command options.
func BaseCache(opts cache.Options) cache.Config {
	cfg := cache.DefaultConfig()
	cfg.Options = opts
	return cfg
}

// RunData captures one live run.
type RunData struct {
	Bench  string
	PEs    int
	Scale  int
	Result emulator.Result
	Bus    bus.Stats
	Cache  cache.Stats
}

// RunLive compiles and runs benchmark b at the given scale/PE count under
// ccfg with the paper's base bus timing, optionally recording the
// reference stream. Output is verified against the benchmark's Go
// reference implementation.
func RunLive(b programs.Benchmark, scale, pes int, ccfg cache.Config, record bool) (*RunData, *trace.Trace, error) {
	mcfg := machine.DefaultConfig()
	mcfg.PEs, mcfg.Cache = pes, ccfg
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorderHint(pes, mcfg.Layout, refHint(b.Name, scale))
	}
	data, err := RunLiveTiming(b, scale, mcfg, rec, nil)
	if err != nil || rec == nil {
		return data, nil, err
	}
	return data, rec.Trace(), nil
}

// RunLiveTiming is RunLive on the machine mcfg describes: its PEs,
// layout, cache and bus timing. A machine mcfg cannot build is an error
// wrapping emulator.ErrMachineConfig. A non-nil rec, made for mcfg's PEs
// and layout, records the reference stream; closing a stream recorder
// (trace.NewStreamRecorder) is the caller's. A non-nil sink is attached
// to the whole cluster (bus, caches, machine, scheduler) for the
// duration of the run and receives the full event stream, scheduler
// events included.
func RunLiveTiming(b programs.Benchmark, scale int, mcfg machine.Config, rec *trace.Recorder, sink probe.Sink) (*RunData, error) {
	im, err := compile.Source(b.Source(scale))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	var wrap func(int, mem.Accessor) mem.Accessor
	if rec != nil {
		wrap = rec.Port
	}
	cl, err := emulator.NewCluster(im, mcfg, emulator.DefaultConfig(), wrap, sink)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	res := cl.Run(0)
	if res.Failed {
		return nil, fmt.Errorf("%s: program failed: %s", b.Name, res.FailReason)
	}
	if want := b.Expected(scale); res.Output != want {
		return nil, fmt.Errorf("%s: wrong answer %q (want %q)", b.Name, res.Output, want)
	}
	m := cl.Machine
	return &RunData{
		Bench:  b.Name,
		PEs:    mcfg.PEs,
		Scale:  scale,
		Result: res,
		Bus:    m.BusStats(),
		Cache:  m.CacheStats(),
	}, nil
}

// ReplayConfig replays a recorded stream against a cache configuration
// and bus timing, returning the resulting statistics. A non-nil sink
// receives the memory-system event stream — identical, event for event,
// to a probed live run of the program the trace was recorded from under
// the same configuration (scheduler events excepted: a replay has no
// scheduler).
func ReplayConfig(tr *trace.Trace, ccfg cache.Config, timing bus.Timing, sink probe.Sink) (bus.Stats, cache.Stats, error) {
	m, cr, err := newReplayMachine(tr.PEs, tr.Layout, ccfg, timing, sink)
	if err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	if err := cr.Replay(tr.Refs, 0); err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	return m.BusStats(), m.CacheStats(), nil
}

// newReplayMachine builds the machine every trace replay runs on, plus
// the chunk replayer over its caches. The machine is always stats-only:
// a replay never reads a data value (DESIGN.md §11), so it owns no data
// plane whatever ccfg.StatsOnly says. A non-nil sink is attached.
func newReplayMachine(pes int, layout mem.Layout, ccfg cache.Config, timing bus.Timing, sink probe.Sink) (*machine.Machine, *trace.ChunkReplayer, error) {
	ccfg.StatsOnly = true
	m := machine.New(machine.Config{PEs: pes, Layout: layout, Cache: ccfg, Timing: timing})
	if sink != nil {
		m.SetProbe(sink)
	}
	ports := make([]mem.Accessor, pes)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	cr, err := trace.NewChunkReplayer(pes, ports)
	return m, cr, err
}

// SweepPoint is one configuration point of a Figure 1/2 sweep.
type SweepPoint struct {
	// Param is the swept value (block words or capacity words).
	Param int
	// MissRatio over all data-accessing operations.
	MissRatio float64
	// BusCycles is total common-bus cycles.
	BusCycles uint64
	// DirectoryBits is the Figure 2 x-axis metric.
	DirectoryBits int
}

// BenchData aggregates everything measured for one benchmark.
type BenchData struct {
	Name  string
	Lines int
	Scale int

	// LiveByPEs are all-optimization live runs per cluster size
	// (Figure 3, Table 1).
	LiveByPEs map[int]*RunData

	// Refs (issued operations by area) from the PEs-sized run; identical
	// across cache configurations.
	Refs cache.Stats

	// OptBus/OptCache hold replayed statistics per Table 4 column, keyed
	// by cache.OptionSets name ("None" is the paper's base configuration
	// used by Tables 2 and 5).
	OptBus   map[string]bus.Stats
	OptCache map[string]cache.Stats

	// BlockSweep and CapSweep are the Figure 1/2 points (all opts);
	// WaySweep is the Section 4.3 associativity ablation.
	BlockSweep []SweepPoint
	CapSweep   []SweepPoint
	WaySweep   []SweepPoint

	// Width2 is the two-word-bus replay (Section 4.4), all opts.
	Width2 bus.Stats
	// ProtoBus holds the unoptimized replay of every registered protocol
	// but PIM, whose unoptimized replay is OptBus["None"]: Illinois for
	// the Section 3.1 comparison, write-through for the Section 3
	// premise (copy-back reduces bus traffic, especially for write-heavy
	// logic programs), and the rest for the protocol ablation. A
	// protocol registered with the cache package joins it without any
	// change here.
	ProtoBus map[cache.Protocol]bus.Stats
}

// Data is a full evaluation dataset.
type Data struct {
	Options Options
	Benches []*BenchData
}

// Collect runs the whole evaluation as a job graph on a worker pool of
// par.Jobs(Options.Jobs) workers. It queues one live run per
// (benchmark, PE-sweep point), in benchmark order and then sweep order.
// The live run at Options.PEs is the record job: it also records the
// benchmark's trace, then puts one job per distinct replay of the
// benchmark's replay table (see replayTable) at the head of the queue.
// Rows with equal configurations share one replay. Only those replay
// jobs hold the trace, so it is released when the last of them
// finishes. With one worker the evaluation therefore runs benchmark by
// benchmark and never holds two traces; with more, a trace's replays
// still start before any live run queued after its record job.
//
// Each live run and each replay keeps its result in its own slot, and
// Data is filled from the slots and the replay table after the pool
// drains, so it is identical at every job count.
//
// A name in Options.Benchmarks that names no benchmark is an error, so a
// mistyped selection never yields empty tables.
func Collect(o Options) (*Data, error) {
	for _, name := range o.Benchmarks {
		if _, ok := programs.ByName(name); !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
	}
	if o.PEs == 0 {
		d := DefaultOptions()
		o.PEs = d.PEs
		fill := func(sweep *[]int, def []int) {
			if *sweep == nil {
				*sweep = def
			}
		}
		fill(&o.PESweep, d.PESweep)
		fill(&o.BlockSizes, d.BlockSizes)
		fill(&o.Capacities, d.Capacities)
		fill(&o.Associativities, d.Associativities)
	}
	selected := selectedBenchmarks(o)
	// The record job is the root of each benchmark's graph; without it no
	// replay can run, so reject the configuration before running anything.
	record := slices.Index(o.PESweep, o.PEs)
	if record < 0 && len(selected) > 0 {
		return nil, fmt.Errorf("%s: PESweep %v does not include PEs=%d",
			selected[0].Name, o.PESweep, o.PEs)
	}

	pw := newProgressLog(o.Progress)
	pool := par.NewCtx(o.ctx(), o.Jobs)
	data := &Data{Options: o}
	live := make([][]*RunData, len(selected)) // by benchmark, then PE-sweep position
	tables := make([][]replayJob, len(selected))
	for i, b := range selected {
		bd := newBenchData(b, o.ScaleFor(b))
		data.Benches = append(data.Benches, bd)
		live[i] = make([]*RunData, len(o.PESweep))
		for k, pes := range o.PESweep {
			pool.Go(func() error {
				rd, tr, err := o.liveRun(pw, b, bd.Scale, pes, k == record)
				if err != nil {
					return err
				}
				live[i][k] = rd
				if tr == nil {
					return nil
				}
				bd.Refs = rd.Cache
				var runs []*replayRun
				tables[i], runs = o.replayTable()
				replays := make([]func() error, len(runs))
				for j, r := range runs {
					replays[j] = func() error { return o.replay(pw, b.Name, tr, r) }
				}
				pool.GoNext(replays...)
				return nil
			})
		}
	}
	if err := pool.Wait(); err != nil {
		return nil, err
	}
	for i, bd := range data.Benches {
		for k, pes := range o.PESweep {
			bd.LiveByPEs[pes] = live[i][k]
		}
		storeReplays(bd, tables[i])
	}
	return data, nil
}

// selectedBenchmarks resolves the benchmark set an options value runs.
func selectedBenchmarks(o Options) []programs.Benchmark {
	pool := programs.All()
	if len(o.Benchmarks) > 0 {
		// Explicit selections may include the extra benchmarks (BUP,
		// PuzzleVec).
		pool = programs.AllWithExtras()
	}
	var sel []programs.Benchmark
	for _, b := range pool {
		if benchSelected(o, b.Name) {
			sel = append(sel, b)
		}
	}
	return sel
}

// newBenchData is benchmark b's dataset before any run lands in it.
func newBenchData(b programs.Benchmark, scale int) *BenchData {
	return &BenchData{
		Name:      b.Name,
		Scale:     scale,
		Lines:     b.Lines(),
		LiveByPEs: map[int]*RunData{},
		OptBus:    map[string]bus.Stats{},
		OptCache:  map[string]cache.Stats{},
		ProtoBus:  map[cache.Protocol]bus.Stats{},
	}
}

// liveRun is one point of the live PE sweep (all optimizations, Figure 3
// and Table 1); with record set it also returns the reference stream.
func (o Options) liveRun(pw *progressLog, b programs.Benchmark, scale, pes int, record bool) (*RunData, *trace.Trace, error) {
	pw.Printf(b.Name, "live run on %d PEs (scale %d)", pes, scale)
	sp := o.Phases.Start("live/" + b.Name)
	rd, tr, err := RunLive(b, scale, pes, BaseCache(cache.OptionsAll()), record)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	o.Metrics.Counter("bench.live.runs").Inc()
	return rd, tr, nil
}

func benchSelected(o Options, name string) bool {
	if len(o.Benchmarks) == 0 {
		return true
	}
	for _, b := range o.Benchmarks {
		if strings.EqualFold(b, name) {
			return true
		}
	}
	return false
}
