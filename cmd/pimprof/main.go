// Command pimprof replays a recorded memory-reference trace (see
// pimtrace) against a cache configuration with the probe layer
// attached, turning the replay into telemetry: a Perfetto timeline,
// per-interval metrics, and per-block hot-spot rankings.
//
// Usage:
//
//	pimprof -events tri.json tri.trc              # Perfetto timeline
//	pimprof -intervals 1000 tri.trc               # interval metrics table
//	pimprof -intervals 1000 -csv iv.csv tri.trc   # ... and a CSV for plotting
//	pimprof -hotspots 10 tri.trc                  # most contended blocks
//	pimprof -block 8 -ways 2 -events x.json tri.trc
//
// Because the memory-system event stream of a replay is identical to
// that of the live run the trace was recorded from (scheduler events
// excepted), pimprof profiles any configuration against a workload
// recorded once — no re-emulation.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/obs"
	"pimcache/internal/probe"
	"pimcache/internal/trace"
)

func main() {
	var (
		size      = flag.Int("cache", 4<<10, "cache size in data words")
		block     = flag.Int("block", 4, "cache block size in words")
		ways      = flag.Int("ways", 4, "set associativity")
		optsName  = flag.String("opts", "all", "optimized commands: none, heap, goal, comm, all")
		protocol  = flag.String("protocol", "pim", cliutil.ProtocolFlagHelp())
		width     = flag.Int("buswidth", 1, "bus width in words")
		events    = flag.String("events", "", "write a Perfetto trace-event JSON timeline to this file")
		intervals = flag.Uint64("intervals", 0, "print interval metrics every N simulated cycles")
		csvOut    = flag.String("csv", "", "write the interval metrics as CSV to this file (needs -intervals)")
		hotspots  = flag.Int("hotspots", 0, "print the top-K most contended blocks")
		manifest  = flag.String("manifest", "", "write a structured run manifest (JSON) to this file")
		scenario  = flag.String("scenario", "", "scenario label recorded in the manifest (pimreport baseline key)")
		heartbeat = flag.Duration("heartbeat", 0, "report replay progress on stderr at this interval (0 disables)")
	)
	prof := cliutil.ProfileFlags(flag.CommandLine)
	run := cliutil.TimeoutFlags(flag.CommandLine)
	flag.Parse()

	if err := cliutil.ValidateBlock(*block); err != nil {
		fatal2(err)
	}
	if flag.NArg() != 1 {
		fatal2(fmt.Errorf("one trace file expected (record one with pimtrace)"))
	}
	if *csvOut != "" && *intervals == 0 {
		fatal2(fmt.Errorf("-csv needs -intervals to set the window width"))
	}
	if *events == "" && *intervals == 0 && *hotspots == 0 {
		fatal2(fmt.Errorf("nothing to do: pass -events, -intervals, or -hotspots"))
	}

	ccfg, err := cliutil.BuildCacheConfig(*size, *block, *ways, *optsName, *protocol)
	if err != nil {
		fatal2(err)
	}
	ccfg.StatsOnly = true // replay never reads a data value (DESIGN.md §11)
	stopProfiles, err = cliutil.StartProfiles(*prof)
	if err != nil {
		fatal2(err)
	}
	man := obs.NewManifest("pimprof")
	man.Scenario = *scenario
	ph := obs.NewPhases()
	reg := obs.NewRegistry()
	wantManifest := *manifest != ""
	ctx, stopSignals := run.Context()
	defer stopSignals()
	cliutil.AbortOnDone(ctx, 30*time.Second, os.Stderr)

	// The trace streams through the validating decoder during the replay
	// itself — the reference slice is never materialized, so multi-
	// gigabyte traces profile in constant memory.
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cr := &obs.CountingReader{R: f}
	digest := sha256.New()
	var src io.Reader = cr
	if wantManifest {
		src = io.TeeReader(cr, digest)
	}
	d, err := trace.NewReader(src)
	if err != nil {
		fatal(err)
	}

	var sinks []probe.Sink
	var pf *probe.Perfetto
	var eventsFile *os.File
	if *events != "" {
		ef, err := os.Create(*events)
		if err != nil {
			fatal(err)
		}
		eventsFile = ef
		pf = probe.NewPerfetto(ef, d.PEs())
		sinks = append(sinks, pf)
	}
	var iv *probe.Intervals
	if *intervals > 0 {
		iv = probe.NewIntervals(*intervals)
		sinks = append(sinks, iv)
	}
	var hs *probe.HotSpots
	if *hotspots > 0 {
		hs = probe.NewHotSpots(ccfg.BlockWords, d.Layout().Bounds().AreaOf)
		sinks = append(sinks, hs)
	}

	timing := bus.Timing{MemCycles: 8, WidthWords: *width}
	hb := obs.NewHeartbeat(os.Stderr, "replay", *heartbeat, d.Len()).Start()
	wd := run.Watchdog("pimprof replay "+flag.Arg(0), ph)
	defer wd.Stop()
	d.SetProgress(func(n int) {
		hb.Add(uint64(n))
		hb.SetBytes(cr.Bytes())
		wd.Pet()
	})
	t0 := time.Now()
	var bs bus.Stats
	var cs cache.Stats
	var refs int
	err = ph.Time("replay/probed", func() error {
		out, err := bench.ReplayReaderResumable(ctx, d, ccfg, timing, probe.Multi(sinks...), bench.CheckpointOptions{}, nil)
		if err != nil {
			return err
		}
		bs, cs, refs = out.Bus, out.Cache, int(out.Refs)
		return nil
	})
	workSeconds := time.Since(t0).Seconds()
	hb.Stop()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d references (%d PEs): %d bus cycles, miss ratio %.4f\n",
		refs, d.PEs(), bs.TotalCycles, cs.MissRatio())

	if iv != nil {
		fmt.Println(iv.Table())
		if *csvOut != "" {
			cf, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			if err := iv.WriteCSV(cf); err != nil {
				cf.Close()
				fatal(err)
			}
			if err := cf.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *csvOut)
		}
	}
	if hs != nil {
		for _, t := range hs.Table(*hotspots) {
			fmt.Println(t)
		}
	}
	if pf != nil {
		if err := pf.Close(); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *events, err))
		}
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s — open it at https://ui.perfetto.dev\n", *events)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	if wantManifest {
		man.Config = obs.NewRunConfig(d.PEs(), ccfg, timing, *optsName, "probed", 0)
		man.Trace = &obs.TraceInfo{
			SHA256:      obs.HexDigest(digest.Sum(nil)),
			Refs:        uint64(refs),
			PEs:         d.PEs(),
			LayoutWords: uint64(d.Layout().TotalWords()),
		}
		man.Stats = obs.NewRunStats(uint64(refs), cs, bs)
		man.Timing.TraceFile = flag.Arg(0)
		man.Timing.Profiles = prof.Paths()
		man.FinishTiming(ph, reg, uint64(refs), workSeconds)
		if err := man.WriteFile(*manifest); err != nil {
			fatal(err)
		}
	}
}

// stopProfiles finalizes -cpuprofile/-memprofile; fatal exits go through
// it too, so an aborted replay still leaves a usable CPU profile.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimprof:", err)
	stopProfiles()
	os.Exit(1)
}

func fatal2(err error) {
	fmt.Fprintln(os.Stderr, "pimprof:", err)
	os.Exit(2)
}
