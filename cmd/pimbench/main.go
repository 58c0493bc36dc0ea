// Command pimbench regenerates the paper's evaluation: Tables 1-5,
// Figures 1-3, and the in-text experiments (two-word bus, optimization
// detail, the Illinois comparison).
//
// Usage:
//
//	pimbench                     # everything, paper scales, one job per GOMAXPROCS
//	pimbench -quick              # everything, reduced scales
//	pimbench -table 4            # one table
//	pimbench -figure 2           # one figure
//	pimbench -extra buswidth     # one in-text experiment
//	pimbench -bench Tri          # restrict to one benchmark
//	pimbench -jobs 1             # one benchmark (one trace) at a time
//
// Each benchmark is recorded once and replayed once per distinct cache
// configuration and bus timing: the Table 4 "All" column and the
// sweeps' base points share one replay. Live runs and trace replays run
// as one job graph on -jobs worker goroutines; a trace's replays run
// before any live run queued after its recording, so -jobs 1 holds one
// trace at a time. The produced tables are byte-identical for every job
// count.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/obs"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "use reduced benchmark scales")
		table    = flag.Int("table", 0, "regenerate only table N (1-5)")
		figure   = flag.Int("figure", 0, "regenerate only figure N (1-3)")
		extra    = flag.String("extra", "", "in-text experiment: "+strings.Join(extras, ", "))
		benches  = flag.String("bench", "", "comma-separated benchmark subset ("+cliutil.BenchList()+")")
		verbose  = flag.Bool("v", false, "print progress")
		jobs     = flag.Int("jobs", 0, "concurrent simulations (0 = one per GOMAXPROCS, 1 = serial)")
		manifest = flag.String("manifest", "", "write a structured run manifest (JSON) to this file")
		scenario = flag.String("scenario", "", "scenario label recorded in the manifest (pimreport baseline key)")
	)
	prof := cliutil.ProfileFlags(flag.CommandLine)
	run := cliutil.TimeoutFlags(flag.CommandLine)
	flag.Parse()
	var names []string
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}
	if err := cliutil.FirstError(
		cliutil.ValidateCount("-jobs", *jobs),
		cliutil.ValidateDuration("-timeout", run.Timeout),
		validateSelection(*table, *figure, *extra),
		validateBenches(names),
	); err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(2)
	}
	ctx, stopSignals := run.Context()
	defer stopSignals()
	cliutil.AbortOnDone(ctx, 30*time.Second, os.Stderr)
	stopProfiles, err := cliutil.StartProfiles(*prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(2)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "pimbench:", err)
		}
	}()

	man := obs.NewManifest("pimbench")
	man.Scenario = *scenario
	ph := obs.NewPhases()
	reg := obs.NewRegistry()

	o := bench.DefaultOptions()
	o.Context = ctx
	o.Quick = *quick
	o.Jobs = *jobs
	o.Phases = ph
	o.Metrics = reg
	o.Benchmarks = names
	if *verbose {
		o.Progress = os.Stderr
	}
	// Sweeps are only needed for the figures and extras.
	wantAll := *table == 0 && *figure == 0 && *extra == ""
	if *table != 0 && *figure == 0 && *extra == "" {
		o.SkipSweeps = true
	}
	if *figure == 3 && *table == 0 && *extra == "" {
		o.SkipSweeps = true // figure 3 uses the live PE sweep only
	}

	d, err := bench.Collect(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		stopProfiles()
		os.Exit(1)
	}

	show := func(cond bool, s fmt.Stringer) {
		if cond {
			fmt.Println(s)
		}
	}
	show(wantAll || *table == 1, bench.Table1(d))
	show(wantAll || *table == 2, bench.Table2(d))
	show(wantAll || *table == 3, bench.Table3(d))
	show(wantAll || *table == 4, bench.Table4(d))
	show(wantAll || *table == 5, bench.Table5(d))
	if wantAll || *figure == 1 {
		m, t := bench.Figure1(d)
		fmt.Println(m)
		fmt.Println(t)
	}
	if wantAll || *figure == 2 {
		m, t := bench.Figure2(d)
		fmt.Println(m)
		fmt.Println(t)
	}
	if wantAll || *figure == 3 {
		tr, sh := bench.Figure3(d)
		fmt.Println(tr)
		fmt.Println(sh)
	}
	show(wantAll || *extra == "buswidth", bench.ExtraBusWidth(d))
	show(wantAll || *extra == "assoc", bench.ExtraAssociativity(d))
	show(wantAll || *extra == "optdetail", bench.ExtraOptDetail(d))
	show(wantAll || *extra == "protocols", bench.ExtraProtocols(d))
	show(wantAll || *extra == "illinois", bench.ExtraIllinois(d))

	if *manifest != "" {
		writeManifest(man, *manifest, d, o, ph, reg, prof.Paths())
	}
}

// extras are the -extra experiment names, in output order.
var extras = []string{"buswidth", "assoc", "optdetail", "protocols", "illinois"}

// validateSelection checks -table, -figure and -extra, so an
// out-of-range selection fails before anything is collected instead of
// printing nothing.
func validateSelection(table, figure int, extra string) error {
	if table < 0 || table > 5 {
		return fmt.Errorf("-table must be 1-5 (got %d)", table)
	}
	if figure < 0 || figure > 3 {
		return fmt.Errorf("-figure must be 1-3 (got %d)", figure)
	}
	if extra != "" && !slices.Contains(extras, extra) {
		return fmt.Errorf("unknown -extra %q (want %s)", extra, strings.Join(extras, ", "))
	}
	return nil
}

// validateBenches checks the -bench names against the benchmark
// registry, so an unknown one is a malformed command line (exit 2) rather
// than a failed run.
func validateBenches(names []string) error {
	for _, name := range names {
		if _, err := cliutil.ParseBench(name); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest records the evaluation run: configuration, per-
// benchmark deterministic statistics (every Table-4 variant), and the
// timing block. Replayed references across all jobs drive the
// throughput figure.
func writeManifest(man *obs.Manifest, path string, d *bench.Data, o bench.Options, ph *obs.Phases, reg *obs.Registry, profiles map[string]string) {
	ccfg := bench.BaseCache(cache.OptionsAll())
	ccfg.StatsOnly = true // the variant statistics come from stats-only replays
	man.Config = obs.NewRunConfig(o.PEs, ccfg, bus.DefaultTiming(), "all", "bench")
	var totalRefs uint64
	for _, bd := range d.Benches {
		sec := obs.BenchSection{
			Name:  bd.Name,
			Scale: bd.Scale,
			PEs:   o.PEs,
			Refs:  bd.Refs.TotalRefs(),
		}
		for _, v := range cache.OptionSets {
			sec.Variants = append(sec.Variants, obs.VariantStats{
				Variant: v.Name,
				Cache:   bd.OptCache[v.Name],
				Bus:     bd.OptBus[v.Name],
			})
		}
		man.Benches = append(man.Benches, sec)
		totalRefs += sec.Refs
	}
	replayed := reg.Counter("bench.replay.refs").Value()
	man.Timing.Profiles = profiles
	man.FinishTiming(ph, reg, replayed, ph.Elapsed().Seconds())
	if totalRefs == 0 {
		man.Timing.MrefsPerSec = 0
	}
	if err := man.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "pimbench:", err)
		os.Exit(1)
	}
}
