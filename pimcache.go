// Package pimcache is a simulator of the PIM coherent cache — the
// shared-memory cache optimized for parallel logic programming
// architectures described in "Design and Performance of a Coherent Cache
// for Parallel Logic Programming Architectures" (Goto, Matsumoto, Tick;
// ISCA 1989) — together with everything needed to reproduce the paper's
// evaluation: a Flat Guarded Horn Clauses (FGHC/KL1) compiler and
// parallel reduction engine, a snooping-bus multiprocessor model, the
// paper's four benchmarks, and the experiment harness regenerating its
// tables and figures.
//
// This package is the stable facade. The layered implementation lives
// under internal/ (see DESIGN.md for the map):
//
//	internal/kl1/...   FGHC parser, compiler, parallel KL1 emulator
//	internal/mem       storage areas, allocators, shared memory
//	internal/bus       common bus, commands F/FI/I/LK/UL, cycle costs
//	internal/cache     PIM cache (EM/EC/SM/S/INV), lock directory,
//	                   DW/ER/RP/RI commands, Illinois baseline
//	internal/machine   deterministic multiprocessor composition
//	internal/trace     reference-stream record/replay
//	internal/bench     benchmarks and the table/figure harness
package pimcache

import (
	"fmt"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// Config selects the simulated hardware for Run and RunBenchmark.
type Config struct {
	// PEs is the number of processing elements (default 8).
	PEs int
	// CacheWords, BlockWords and Ways set each PE's cache geometry
	// (defaults: 4096, 4, 4 — the paper's base cache).
	CacheWords int
	BlockWords int
	Ways       int
	// Optimizations enables the software-controlled memory commands:
	// "none", "heap" (DW), "goal" (ER/RP/DW), "comm" (RI) or "all"
	// (default "all").
	Optimizations string
	// Protocol names the coherence protocol (default "pim"). Any name
	// registered with the cache package works: "pim", "illinois",
	// "writethrough", "moesi", "dragon", or "adaptive".
	Protocol string
	// BusWidthWords and MemCycles set the bus timing (defaults 1 and 8).
	BusWidthWords int
	MemCycles     int
	// HeapWords sizes the heap area (default 8M words).
	HeapWords int
	// EnableGC halves the heap into semispaces and runs the stop-and-copy
	// collector when allocation fails (off by default).
	EnableGC bool
}

// DefaultConfig returns the paper's base system.
func DefaultConfig() Config {
	return Config{
		PEs: 8, CacheWords: 4 << 10, BlockWords: 4, Ways: 4,
		Optimizations: "all", Protocol: "pim",
		BusWidthWords: 1, MemCycles: 8, HeapWords: 8 << 20,
	}
}

func (c Config) fill() Config {
	d := DefaultConfig()
	if c.PEs == 0 {
		c.PEs = d.PEs
	}
	if c.CacheWords == 0 {
		c.CacheWords = d.CacheWords
	}
	if c.BlockWords == 0 {
		c.BlockWords = d.BlockWords
	}
	if c.Ways == 0 {
		c.Ways = d.Ways
	}
	if c.Optimizations == "" {
		c.Optimizations = d.Optimizations
	}
	if c.Protocol == "" {
		c.Protocol = d.Protocol
	}
	if c.BusWidthWords == 0 {
		c.BusWidthWords = d.BusWidthWords
	}
	if c.MemCycles == 0 {
		c.MemCycles = d.MemCycles
	}
	if c.HeapWords == 0 {
		c.HeapWords = d.HeapWords
	}
	return c
}

func (c Config) cacheConfig() (cache.Config, error) {
	var opts cache.Options
	switch c.Optimizations {
	case "none":
		opts = cache.OptionsNone()
	case "heap":
		opts = cache.OptionsHeap()
	case "goal":
		opts = cache.OptionsGoal()
	case "comm":
		opts = cache.OptionsComm()
	case "all":
		opts = cache.OptionsAll()
	default:
		return cache.Config{}, fmt.Errorf("pimcache: unknown optimization set %q", c.Optimizations)
	}
	cfg := cache.Config{
		SizeWords: c.CacheWords, BlockWords: c.BlockWords, Ways: c.Ways,
		LockEntries: 4, Options: opts,
	}
	proto, ok := cache.ProtocolByName(c.Protocol)
	if !ok {
		return cache.Config{}, fmt.Errorf("pimcache: unknown protocol %q", c.Protocol)
	}
	cfg.Protocol = proto
	return cfg, cfg.Validate()
}

func (c Config) machineConfig() (machine.Config, error) {
	cc, err := c.cacheConfig()
	if err != nil {
		return machine.Config{}, err
	}
	return machine.Config{
		PEs: c.PEs,
		Layout: mem.Layout{
			InstWords: 64 << 10, HeapWords: c.HeapWords,
			GoalWords: 1 << 20, SuspWords: 256 << 10, CommWords: 64 << 10,
		},
		Cache:  cc,
		Timing: bus.Timing{MemCycles: c.MemCycles, WidthWords: c.BusWidthWords},
	}, nil
}

// Result summarizes a simulated run.
type Result struct {
	// Output is everything the program printed.
	Output string
	// Failed/FailReason report program failure (failed unification or a
	// goal with no applicable clause).
	Failed     bool
	FailReason string
	// Deadlocked is true when goals were still suspended at termination.
	Deadlocked bool

	// Workload metrics.
	Reductions   uint64
	Suspensions  uint64
	Instructions uint64
	MemoryRefs   uint64
	GoalsMoved   uint64

	// Cache and bus metrics.
	BusCycles     uint64
	MemBusyCycles uint64
	MissRatio     float64
	LRHitRatio    float64
}

// Run compiles and executes an FGHC program (which must define main/0)
// on the simulated cluster. maxSteps bounds execution (0 = unlimited).
func Run(source string, cfg Config, maxSteps uint64) (Result, error) {
	mcfg, err := cfg.fill().machineConfig()
	if err != nil {
		return Result{}, err
	}
	ecfg := emulator.DefaultConfig()
	ecfg.EnableGC = cfg.EnableGC
	cl, res, err := emulator.RunSource(source, mcfg, ecfg, maxSteps)
	if err != nil {
		return Result{}, err
	}
	return toResult(cl, res), nil
}

// RunBenchmark runs one of the paper's benchmarks ("Tri", "Semi",
// "Puzzle", "Pascal") at the given scale (0 = its default) and verifies
// the answer against a native reference implementation.
func RunBenchmark(name string, scale int, cfg Config) (Result, error) {
	b, ok := programs.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("pimcache: unknown benchmark %q", name)
	}
	if scale == 0 {
		scale = b.DefaultScale
	}
	c := cfg.fill()
	cc, err := c.cacheConfig()
	if err != nil {
		return Result{}, err
	}
	rd, err := bench.RunLiveTiming(b, scale, c.PEs, cc,
		bus.Timing{MemCycles: c.MemCycles, WidthWords: c.BusWidthWords}, nil, nil)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		Output:       rd.Result.Output,
		Reductions:   rd.Result.Emu.Reductions,
		Suspensions:  rd.Result.Emu.Suspensions,
		Instructions: rd.Result.Emu.Instructions,
		GoalsMoved:   rd.Result.Emu.GoalsStolen,
		MemoryRefs:   rd.Cache.TotalRefs(),
		BusCycles:    rd.Bus.TotalCycles,
	}
	fillCacheMetrics(&r, &rd.Cache, &rd.Bus)
	return r, nil
}

func toResult(cl *emulator.Cluster, res emulator.Result) Result {
	cs := cl.Machine.CacheStats()
	bs := cl.Machine.BusStats()
	r := Result{
		Output:       res.Output,
		Failed:       res.Failed,
		FailReason:   res.FailReason,
		Deadlocked:   res.Floating > 0,
		Reductions:   res.Emu.Reductions,
		Suspensions:  res.Emu.Suspensions,
		Instructions: res.Emu.Instructions,
		GoalsMoved:   res.Emu.GoalsStolen,
		MemoryRefs:   cs.TotalRefs(),
		BusCycles:    bs.TotalCycles,
	}
	fillCacheMetrics(&r, &cs, &bs)
	return r
}

func fillCacheMetrics(r *Result, cs *cache.Stats, bs *bus.Stats) {
	r.MissRatio = cs.MissRatio()
	r.MemBusyCycles = bs.MemBusyCycles
	if total := cs.LRTotal(); total > 0 {
		r.LRHitRatio = float64(cs.LRHits()) / float64(total)
	}
}

// Disassemble compiles an FGHC program and renders the abstract-machine
// code the simulated PEs would fetch from the instruction area.
func Disassemble(source string) (string, error) {
	prog, err := parser.Parse(source)
	if err != nil {
		return "", err
	}
	im, err := compile.Compile(prog, word.NewTable())
	if err != nil {
		return "", err
	}
	return im.Disassemble(), nil
}

// Benchmarks lists the bundled benchmark names.
func Benchmarks() []string {
	var names []string
	for _, b := range programs.All() {
		names = append(names, b.Name)
	}
	return names
}

// Evaluation regenerates the paper's full evaluation (Tables 1-5,
// Figures 1-3 and the in-text experiments) and returns it as text. With
// quick set, reduced benchmark scales are used. The collection fans out
// over all CPU cores; the output is identical to a serial run.
func Evaluation(quick bool) (string, error) {
	o := bench.DefaultOptions()
	o.Quick = quick
	d, err := bench.Collect(o)
	if err != nil {
		return "", err
	}
	return bench.RenderAll(d), nil
}
