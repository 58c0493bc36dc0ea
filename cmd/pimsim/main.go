// Command pimsim runs KL1 benchmarks on the simulated PIM cluster under
// one cache configuration and prints the full statistics: the workload
// summary, references by area and operation, bus cycles by area and
// access pattern, cache hit ratios, and lock-protocol effectiveness.
//
// Usage:
//
//	pimsim -bench Tri                      # paper base configuration
//	pimsim -bench Puzzle -pes 4 -opts none
//	pimsim -bench Semi -scale 128 -cache 8192 -block 8 -ways 2
//	pimsim -bench Pascal -protocol illinois
//	pimsim -bench Tri,Semi,Puzzle,Pascal   # several, simulated in parallel
//	pimsim -bench Tri -events tri.json -intervals 1000 -hotspots 10
//
// With a comma-separated -bench list the simulations fan out over -jobs
// worker goroutines (every run owns a private simulated machine); the
// reports print in list order regardless of completion order.
//
// The telemetry flags attach the probe layer (package probe) to the
// run: -events writes a Perfetto/Chrome trace-event JSON timeline
// (open it at ui.perfetto.dev), -intervals prints per-window bus
// utilization / miss ratio / lock-wait metrics, and -hotspots prints
// the top-K most contended blocks. They require a single -bench entry
// (one machine, one timeline).
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/par"
	"pimcache/internal/stats"
)

func main() {
	var (
		benchList = flag.String("bench", "Tri", "comma-separated benchmarks ("+cliutil.BenchList()+")")
		scale     = flag.Int("scale", 0, "benchmark scale (0 = default)")
		pes       = flag.Int("pes", 8, "number of processing elements")
		size      = flag.Int("cache", 4<<10, "cache size in data words")
		block     = flag.Int("block", 4, "cache block size in words")
		ways      = flag.Int("ways", 4, "set associativity")
		optsName  = flag.String("opts", "all", cliutil.OptsFlagHelp())
		protocol  = flag.String("protocol", "pim", cliutil.ProtocolFlagHelp())
		width     = flag.Int("buswidth", 1, "bus width in words")
		jobs      = flag.Int("jobs", 0, "concurrent simulations (0 = all CPU cores)")
		manifest  = flag.String("manifest", "", "write a structured run manifest (JSON) to this file (single -bench entry)")
		scenario  = flag.String("scenario", "", "scenario label recorded in the manifest (pimreport baseline key)")
	)
	tel := cliutil.TelemetryFlags(flag.CommandLine)
	run := cliutil.TimeoutFlags(flag.CommandLine)
	flag.Parse()
	ctx, stopSignals := run.Context()
	defer stopSignals()
	cliutil.AbortOnDone(ctx, 30*time.Second, os.Stderr)

	man := obs.NewManifest("pimsim")
	man.Scenario = *scenario
	ph := obs.NewPhases()

	if err := cliutil.FirstError(
		cliutil.ValidatePEs(*pes),
		cliutil.ValidateCount("-jobs", *jobs),
		cliutil.ValidateCount("-scale", *scale),
		cliutil.ValidateBlock(*block),
		cliutil.ValidateBusWidth(*width),
		cliutil.ValidateDuration("-timeout", run.Timeout),
		tel.Validate(),
	); err != nil {
		fmt.Fprintln(os.Stderr, "pimsim:", err)
		os.Exit(2)
	}

	var benches []programs.Benchmark
	for _, name := range strings.Split(*benchList, ",") {
		b, err := cliutil.ParseBench(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimsim:", err)
			os.Exit(2)
		}
		benches = append(benches, b)
	}
	ccfg, cfgErr := cliutil.BuildCacheConfig(*size, *block, *ways, *optsName, *protocol)
	if cfgErr != nil {
		fmt.Fprintln(os.Stderr, "pimsim:", cfgErr)
		os.Exit(2)
	}

	if *manifest != "" && len(benches) > 1 {
		fmt.Fprintln(os.Stderr, "pimsim: -manifest needs a single -bench entry (one machine, one manifest)")
		os.Exit(2)
	}

	if tel.On() && len(benches) > 1 {
		fmt.Fprintln(os.Stderr, "pimsim: -events/-intervals/-hotspots need a single -bench entry (one machine, one timeline)")
		os.Exit(2)
	}
	mcfg := machine.DefaultConfig()
	mcfg.PEs, mcfg.Cache, mcfg.Timing = *pes, ccfg, bus.Timing{MemCycles: 8, WidthWords: *width}
	// The sink is nil unless a telemetry flag asked for a consumer.
	probes, err := tel.Start(*pes, ccfg.BlockWords, mcfg.Layout.Bounds().AreaOf)
	if err != nil {
		fail(err)
	}
	defer probes.Discard()

	// Fan the runs out, but buffer each report and print in list order.
	reports := make([]strings.Builder, len(benches))
	results := make([]*bench.RunData, len(benches))
	pool := par.NewCtx(ctx, *jobs)
	for i, b := range benches {
		i, b := i, b
		pool.Go(func() error {
			runScale := *scale
			if runScale == 0 {
				runScale = b.DefaultScale
			}
			sp := ph.Start("live/" + b.Name)
			rd, err := bench.RunLiveTiming(b, runScale, mcfg, nil, probes.Sink)
			sp.End()
			if err != nil {
				return err
			}
			results[i] = rd
			printReport(&reports[i], b, rd, ccfg)
			return nil
		})
	}
	err = pool.Wait()
	for i := range reports {
		if reports[i].Len() > 0 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(reports[i].String())
		}
	}
	if err != nil {
		probes.Discard() // fail exits without running deferred calls
		fail(err)
	}
	if err := probes.Report(os.Stdout); err != nil {
		fail(err)
	}
	writeManifest(man, *manifest, results[0], ccfg, mcfg.Timing, *optsName, ph)
}

// fail reports a failed run and exits: with status 2 when the runtime
// refused the machine configuration (a usage error, like a malformed
// flag), 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "pimsim:", err)
	if errors.Is(err, emulator.ErrMachineConfig) {
		os.Exit(2)
	}
	os.Exit(1)
}

// writeManifest records a single-benchmark run: the configuration, the
// deterministic workload outcome (output digest, reductions, rounds)
// and the full cache/bus statistics. No-op when path is empty.
func writeManifest(man *obs.Manifest, path string, rd *bench.RunData, ccfg cache.Config, timing bus.Timing, optsName string, ph *obs.Phases) {
	if path == "" || rd == nil {
		return
	}
	man.Config = obs.NewRunConfig(rd.PEs, ccfg, timing, optsName, "live")
	out := sha256.Sum256([]byte(rd.Result.Output))
	man.Workload = &obs.Workload{
		Bench:        rd.Bench,
		Scale:        rd.Scale,
		OutputSHA256: obs.HexDigest(out[:]),
		Reductions:   rd.Result.Emu.Reductions,
		Rounds:       rd.Result.Rounds,
	}
	refs := rd.Cache.TotalRefs()
	man.Stats = obs.NewRunStats(refs, rd.Cache, rd.Bus)
	man.FinishTiming(ph, nil, refs, ph.Elapsed().Seconds())
	if err := man.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "pimsim:", err)
		os.Exit(1)
	}
}

func printReport(w io.Writer, b programs.Benchmark, rd *bench.RunData, ccfg cache.Config) {
	res := rd.Result
	fmt.Fprintf(w, "%s (scale %d) on %d PEs — %s\n", rd.Bench, rd.Scale, rd.PEs, b.Description)
	fmt.Fprintf(w, "cache: %d words, %d-word blocks, %d-way, protocol %s\n\n",
		ccfg.SizeWords, ccfg.BlockWords, ccfg.Ways, ccfg.Protocol)

	sum := &stats.Table{Title: "Run summary", Columns: []string{"metric", "value"}}
	sum.AddRow("output", fmt.Sprintf("%q", res.Output))
	sum.AddRow("reductions", fmt.Sprint(res.Emu.Reductions))
	sum.AddRow("suspensions", fmt.Sprint(res.Emu.Suspensions))
	sum.AddRow("resumptions", fmt.Sprint(res.Emu.Resumptions))
	sum.AddRow("goals spawned", fmt.Sprint(res.Emu.Spawns))
	sum.AddRow("goals migrated", fmt.Sprint(res.Emu.GoalsStolen))
	sum.AddRow("instructions", fmt.Sprint(res.Emu.Instructions))
	sum.AddRow("memory references", fmt.Sprint(rd.Cache.TotalRefs()))
	sum.AddRow("machine rounds", fmt.Sprint(res.Rounds))
	fmt.Fprintln(w, sum)

	cs := rd.Cache
	areas := &stats.Table{Title: "Memory references by area and operation",
		Columns: []string{"area", "R", "W", "LR", "UW", "U", "DW", "ER", "RP", "RI", "total"}}
	for a := mem.AreaInst; a <= mem.AreaComm; a++ {
		row := make([]string, 0, 10)
		for op := cache.Op(0); op < cache.NumOps; op++ {
			row = append(row, fmt.Sprint(cs.Refs[a][op]))
		}
		row = append(row, fmt.Sprint(cs.RefsByArea(a)))
		areas.AddRow(a.String(), row...)
	}
	fmt.Fprintln(w, areas)

	bs := rd.Bus
	busT := &stats.Table{Title: "Common bus", Columns: []string{"metric", "value"}}
	busT.AddRow("total cycles", fmt.Sprint(bs.TotalCycles))
	for a := mem.AreaInst; a <= mem.AreaComm; a++ {
		busT.AddRow("cycles in "+a.String(),
			fmt.Sprintf("%d (%.1f%%)", bs.CyclesByArea[a], stats.Pct(bs.CyclesByArea[a], bs.TotalCycles)))
	}
	for p := bus.Pattern(0); p < bus.NumPatterns; p++ {
		busT.AddRow(p.String(),
			fmt.Sprintf("%d ops, %d cycles", bs.CountByPattern[p], bs.CyclesByPattern[p]))
	}
	for c := bus.Command(0); c < bus.NumCommands; c++ {
		busT.AddRow(c.String()+" commands", fmt.Sprint(bs.Commands[c]))
	}
	busT.AddRow("memory-module busy cycles", fmt.Sprint(bs.MemBusyCycles))
	fmt.Fprintln(w, busT)

	ct := &stats.Table{Title: "Cache behaviour", Columns: []string{"metric", "value"}}
	ct.AddRow("miss ratio", fmt.Sprintf("%.4f", cs.MissRatio()))
	ct.AddRow("DW applied/degraded", fmt.Sprintf("%d/%d", cs.DWApplied, cs.DWDegraded))
	ct.AddRow("ER invalidate/purge/degraded", fmt.Sprintf("%d/%d/%d", cs.ERInval, cs.ERPurge, cs.ERDegraded))
	ct.AddRow("RP applied/degraded", fmt.Sprintf("%d/%d", cs.RPApplied, cs.RPDegraded))
	ct.AddRow("RI applied/degraded", fmt.Sprintf("%d/%d", cs.RIApplied, cs.RIDegraded))
	ct.AddRow("dirty blocks purged (dead data)", fmt.Sprint(cs.PurgedDirty))
	ct.AddRow("swap-outs", fmt.Sprint(cs.SwapOuts))
	ct.AddRow("LR hit ratio", fmt.Sprintf("%.3f", stats.Ratio(cs.LRHits(), cs.LRTotal())))
	ct.AddRow("LR hit-to-exclusive", fmt.Sprintf("%.3f", stats.Ratio(cs.LRHitExclusive, cs.LRTotal())))
	ct.AddRow("unlocks with no waiter", fmt.Sprintf("%.3f",
		stats.Ratio(cs.UnlockNoWaiter, cs.UnlockNoWaiter+cs.UnlockWaiter)))
	ct.AddRow("busy waits", fmt.Sprint(cs.BusyWaits))
	fmt.Fprintln(w, ct)

	bal := &stats.Table{Title: "Per-PE balance",
		Columns: []string{"PE", "reductions", "suspensions", "sent", "stolen"}}
	for i, st := range res.PerPE {
		bal.AddRow(fmt.Sprint(i), fmt.Sprint(st.Reductions),
			fmt.Sprint(st.Suspensions), fmt.Sprint(st.GoalsSent), fmt.Sprint(st.GoalsStolen))
	}
	fmt.Fprintln(w, bal)
}
