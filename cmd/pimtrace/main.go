// Command pimtrace records, inspects, generates, and replays memory-
// reference traces — the trace-driven half of the paper's methodology.
//
// Usage:
//
//	pimtrace record -bench Tri -o tri.trc         # emulate + record
//	pimtrace synth -kind orparallel -o or.trc     # synthetic workload
//	pimtrace info tri.trc                         # header + op histogram
//	pimtrace replay -cache 8192 -block 8 tri.trc  # replay vs a config
//	pimtrace replay -events tri.json tri.trc      # ... plus a Perfetto timeline
//	pimtrace replay -intervals 1000 -csv iv.csv -hotspots 10 tri.trc
//	pimtrace verify tri.trc resume.ckpt run.json  # checksum-validate artifacts
//
// replay streams the trace through the validating decoder in constant
// memory. The telemetry flags attach the probe layer (package probe):
// -events writes a Perfetto trace-event JSON timeline (open it at
// ui.perfetto.dev), -intervals prints per-window bus utilization, miss
// ratio and lock-wait metrics (-csv also writes them for plotting), and
// -hotspots ranks the top-K most contended blocks. The memory-system
// event stream of a replay is identical to that of the live run the
// trace was recorded from (scheduler events excepted), so any cache
// configuration can be profiled against a workload recorded once.
//
// A malformed command line exits with status 2, a failed run with 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/machine"
	"pimcache/internal/obs"
	"pimcache/internal/safeio"
	"pimcache/internal/stats"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "synth":
		synthesize(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pimtrace {record|synth|info|replay|verify} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimtrace:", err)
	os.Exit(1)
}

// usageErr reports a malformed command line and exits with status 2,
// the flag package's own convention.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "pimtrace:", err)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	benchName := fs.String("bench", "Tri", "benchmark to record ("+cliutil.BenchList()+")")
	scale := fs.Int("scale", 0, "benchmark scale (0 = default)")
	pes := fs.Int("pes", 8, "processing elements")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		usageErr(fmt.Errorf("record: -o required"))
	}
	if err := cliutil.FirstError(cliutil.ValidatePEs(*pes), cliutil.ValidateCount("-scale", *scale)); err != nil {
		usageErr(fmt.Errorf("record: %w", err))
	}
	b, err := cliutil.ParseBench(*benchName)
	if err != nil {
		usageErr(fmt.Errorf("record: %w", err))
	}
	if *scale == 0 {
		*scale = b.DefaultScale
	}
	// The live run streams its trace into the output's temporary file,
	// chunk by chunk, so recording holds one chunk at a time. An
	// unwritable -o fails before the run starts; a failed run leaves no
	// file.
	mcfg := machine.DefaultConfig()
	mcfg.PEs, mcfg.Cache = *pes, bench.BaseCache(cache.OptionsAll())
	var refs int
	var runErr error
	err = safeio.WriteFile(*out, func(w io.Writer) error {
		rec := trace.NewStreamRecorder(w.(*os.File), *pes, mcfg.Layout)
		_, runErr = bench.RunLiveTiming(b, *scale, mcfg, rec, nil)
		if runErr != nil {
			return runErr
		}
		refs = rec.Len()
		return rec.Close()
	})
	switch {
	case errors.Is(runErr, emulator.ErrMachineConfig):
		usageErr(runErr)
	case runErr != nil:
		fatal(runErr)
	case err != nil:
		fatal(err)
	}
	fmt.Printf("recorded %d references from %s (scale %d, %d PEs) to %s\n",
		refs, b.Name, *scale, *pes, *out)
}

func synthesize(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	kind := fs.String("kind", "orparallel", "seqprolog, orparallel, or ring")
	pes := fs.Int("pes", 8, "processing elements")
	events := fs.Int("events", 200_000, "approximate reference count")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		usageErr(fmt.Errorf("synth: -o required"))
	}
	if err := cliutil.FirstError(cliutil.ValidatePEs(*pes), cliutil.ValidateCount("-events", *events)); err != nil {
		usageErr(fmt.Errorf("synth: %w", err))
	}
	c := synth.DefaultConfig()
	c.PEs, c.Events, c.Seed = *pes, *events, *seed
	var tr *trace.Trace
	switch *kind {
	case "seqprolog":
		tr = synth.SeqProlog(c)
	case "orparallel":
		tr = synth.ORParallel(c)
	case "ring":
		tr = synth.MessageRing(c)
	default:
		usageErr(fmt.Errorf("synth: unknown -kind %q (want seqprolog, orparallel, or ring)", *kind))
	}
	// Atomic: a crash mid-write can never leave a torn trace under the
	// final name.
	if err := safeio.WriteFile(*out, tr.Write); err != nil {
		fatal(err)
	}
	fmt.Printf("generated %d %s references to %s\n", tr.Len(), *kind, *out)
}

// info prints the header and per-op/per-PE histograms without replaying.
// It streams the file through the validating decoder in chunks, so a
// multi-gigabyte trace is summarized in constant memory.
func info(args []string) {
	if len(args) != 1 {
		usageErr(fmt.Errorf("info: one trace file expected"))
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	d, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	var byOp [cache.NumOps]uint64
	byPE := make([]uint64, d.PEs())
	buf := make([]trace.Ref, trace.ChunkRefs)
	var total uint64
	for {
		n, err := d.Next(buf)
		for _, r := range buf[:n] {
			byOp[r.Op()]++
			byPE[r.PE()]++
		}
		total += uint64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
	}
	lay := d.Layout()
	fmt.Printf("%s: %d references, %d PEs, layout %d words\n",
		args[0], total, d.PEs(), lay.TotalWords())
	t := &stats.Table{Columns: []string{"op", "count", "%"}}
	for op := cache.Op(0); op < cache.NumOps; op++ {
		t.AddRow(op.String(), fmt.Sprint(byOp[op]),
			fmt.Sprintf("%.2f", stats.Pct(byOp[op], total)))
	}
	fmt.Println(t)
	t2 := &stats.Table{Columns: []string{"PE", "refs"}}
	for pe := 0; pe < d.PEs(); pe++ {
		t2.AddRow(fmt.Sprint(pe), fmt.Sprint(byPE[pe]))
	}
	fmt.Println(t2)
}

// verify stream-validates artifacts without replaying: traces (framing,
// checksums, every reference), checkpoints (frame, checksum, and a
// restore into a stats-only machine of the recorded configuration, as
// -resume does) and run manifests (JSON + schema).
// The file type is sniffed from its magic. Exit status 1 with the
// first bad offset on any damage; success prints one summary line per
// file.
func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress per-file summaries (errors still print)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usageErr(fmt.Errorf("verify: at least one artifact file expected"))
	}
	failed := false
	for _, path := range fs.Args() {
		line, err := verifyFile(path)
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "pimtrace: verify %s: %v\n", path, err)
			continue
		}
		if !*quiet {
			fmt.Printf("%s: %s\n", path, line)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func verifyFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	sniff, err := br.Peek(10)
	if err != nil && len(sniff) == 0 {
		return "", fmt.Errorf("reading magic: %w", err)
	}
	switch {
	case strings.HasPrefix(string(sniff), "PIMTRACE"):
		info, err := trace.Verify(br)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ok trace v%d: %d refs, %d PEs, %d chunks, %d bytes",
			info.Version, info.Refs, info.PEs, info.Chunks, info.Bytes), nil
	case strings.HasPrefix(string(sniff), "PIMCKPT"):
		s, err := machine.DecodeSnapshot(br)
		if err != nil {
			return "", err
		}
		if err := s.Verify(); err != nil {
			return "", err
		}
		resident := 0
		for _, c := range s.Caches {
			for _, st := range c.States {
				if st.Valid() {
					resident++
				}
			}
		}
		return fmt.Sprintf("ok checkpoint: %d PEs, replay position %d, %d resident blocks",
			s.Config.PEs, s.RefsReplayed, resident), nil
	case len(sniff) > 0 && (sniff[0] == '{' || sniff[0] == ' ' || sniff[0] == '\n'):
		m, err := obs.ReadManifestFile(path)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ok manifest: tool %s, schema %d, key %s, stats-key %s",
			m.Tool, m.Schema, m.Key(), m.StatsKey()), nil
	}
	return "", fmt.Errorf("unrecognized artifact (magic %q)", sniff)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	size := fs.Int("cache", 4<<10, "cache size in data words")
	block := fs.Int("block", 4, "block size in words")
	ways := fs.Int("ways", 4, "associativity")
	optsName := fs.String("opts", "all", cliutil.OptsFlagHelp())
	protocolName := fs.String("protocol", "pim", cliutil.ProtocolFlagHelp())
	width := fs.Int("buswidth", 1, "bus width in words")
	tel := cliutil.TelemetryFlags(fs)
	fs.StringVar(&tel.CSV, "csv", "", "write the interval metrics as CSV to this file (needs -intervals)")
	manifestPath := fs.String("manifest", "", "write a structured run manifest (JSON) to this file")
	scenario := fs.String("scenario", "", "scenario label recorded in the manifest (pimreport baseline key)")
	heartbeat := fs.Duration("heartbeat", 0, "report streaming progress on stderr at this interval (e.g. 10s; 0 disables)")
	ckptEvery := fs.Uint64("checkpoint-every", 0, "write a durable checkpoint every N replayed references (0 disables)")
	ckptPath := fs.String("checkpoint", "", "checkpoint file for -checkpoint-every and -resume")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file if it exists (fresh start otherwise)")
	chaosExitAfter := fs.Int("chaos-exit-after", 0, "exit with status 3 after N checkpoint writes (crash-injection hook for the resume tests; 0 disables)")
	run := cliutil.TimeoutFlags(fs)
	stall := fs.Duration("stall", 0, "dump goroutine stacks and phase timers after this long without progress (e.g. 2m; 0 = off)")
	prof := cliutil.ProfileFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usageErr(fmt.Errorf("replay: one trace file expected"))
	}
	checkpointing := *ckptEvery > 0 || *resume
	if err := cliutil.FirstError(
		cliutil.ValidateBusWidth(*width),
		cliutil.ValidateDuration("-timeout", run.Timeout),
		cliutil.ValidateDuration("-heartbeat", *heartbeat),
		cliutil.ValidateDuration("-stall", *stall),
		tel.Validate(),
	); err != nil {
		usageErr(fmt.Errorf("replay: %w", err))
	}
	if checkpointing && tel.On() {
		// A probe stream restarted mid-trace would miss every event
		// before the resume point.
		usageErr(fmt.Errorf("replay: -events/-intervals/-hotspots cover a whole replay; drop -checkpoint-every/-resume"))
	}
	if checkpointing && *ckptPath == "" {
		usageErr(fmt.Errorf("replay: -checkpoint-every/-resume need -checkpoint <file>"))
	}
	if *chaosExitAfter > 0 && *ckptEvery == 0 {
		usageErr(fmt.Errorf("replay: -chaos-exit-after needs -checkpoint-every"))
	}
	ctx, stopSignals := run.Context()
	defer stopSignals()
	cliutil.AbortOnDone(ctx, 30*time.Second, os.Stderr)
	ccfg, err := cliutil.BuildCacheConfig(*size, *block, *ways, *optsName, *protocolName)
	if err != nil {
		usageErr(fmt.Errorf("replay: %w", err))
	}
	// Replay never reads a data value, so it always runs stats-only; the
	// manifest records the machine it ran.
	ccfg.StatsOnly = true
	timing := bus.Timing{MemCycles: 8, WidthWords: *width}

	// Observability: the manifest is assembled from the start (it
	// captures host identity and wall time), but written only when
	// -manifest was given. Hashing the trace is skipped otherwise.
	man := obs.NewManifest("pimtrace")
	man.Scenario = *scenario
	ph := obs.NewPhases()
	reg := obs.NewRegistry()
	wantManifest := *manifestPath != ""
	stopProfiles, err := cliutil.StartProfiles(*prof)
	if err != nil {
		fatal(err)
	}

	mode := "stream"
	if tel.On() {
		mode = "probed"
	}

	// The trace streams through the validating decoder during the replay
	// itself — the reference slice is never materialized, so multi-
	// gigabyte traces replay in constant memory.
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	digest := sha256.New()
	var src io.Reader = f
	if wantManifest {
		// The resume seek decodes (and so tees) every skipped byte,
		// so a resumed run's trace digest equals the uninterrupted
		// run's — their manifests stay comparable.
		src = io.TeeReader(f, digest)
	}
	d, err := trace.NewReader(bufio.NewReaderSize(src, 64<<10))
	if err != nil {
		fatal(err)
	}
	pes, layoutWords := d.PEs(), uint64(d.Layout().TotalWords())
	probes, err := tel.Start(pes, ccfg.BlockWords, d.Layout().Bounds().AreaOf)
	if err != nil {
		fatal(err)
	}
	// A failed run discards the unfinished -events timeline (fatal exits
	// without running deferred calls), keeping an earlier file as it was.
	defer probes.Discard()
	fail := func(err error) {
		probes.Discard()
		fatal(err)
	}

	// Resume: restore the checkpointed machine and seek, when the
	// checkpoint file exists; a missing file is a fresh start so one
	// command line works for both the first attempt and every retry.
	var snap *machine.Snapshot
	var resumedAt uint64 // references replayed before this run
	if *resume {
		switch s, err := machine.ReadSnapshotFile(*ckptPath); {
		case err == nil:
			snap, resumedAt = s, uint64(s.RefsReplayed)
			mode = "resume"
			fmt.Fprintf(os.Stderr, "pimtrace: resuming from %s at ref %d\n", *ckptPath, s.RefsReplayed)
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "pimtrace: no checkpoint at %s, starting fresh\n", *ckptPath)
		default:
			fail(err)
		}
	}

	hb := obs.NewHeartbeat(os.Stderr, "replay", *heartbeat, d.Len()).Start()
	wd := obs.NewWatchdog(os.Stderr, "replay "+fs.Arg(0), *stall, ph).Start()
	defer wd.Stop()
	chunks := reg.Counter("trace.chunks")
	// The hook runs on the decoder goroutine, which owns d: it may read
	// d's offset, and shares the rest through atomics.
	d.SetProgress(func(n int) {
		chunks.Inc()
		hb.Add(uint64(n))
		hb.SetBytes(uint64(d.Offset()))
		wd.Pet()
	})
	ckptWrites := reg.Counter("replay.checkpoints")
	ck := bench.CheckpointOptions{Every: *ckptEvery, Write: func(s *machine.Snapshot) error {
		if err := s.WriteFile(*ckptPath); err != nil {
			return err
		}
		ckptWrites.Inc()
		wd.Pet()
		if *chaosExitAfter > 0 && ckptWrites.Value() >= uint64(*chaosExitAfter) {
			hb.Stop()
			fmt.Fprintf(os.Stderr, "pimtrace: chaos exit after %d checkpoints (at ref %d)\n",
				*chaosExitAfter, s.RefsReplayed)
			os.Exit(3)
		}
		return nil
	}}
	t0 := time.Now()
	var out *bench.ReplayOutcome
	err = ph.Time("replay/"+mode, func() error {
		out, err = bench.ReplayReaderResumable(ctx, d, ccfg, timing, probes.Sink, ck, snap)
		return err
	})
	elapsed := time.Since(t0)
	hb.Stop()
	if errors.Is(err, bench.ErrForeignCheckpoint) {
		err = fmt.Errorf("%s: %w", *ckptPath, err)
	}
	if err != nil {
		fail(err)
	}
	bs, cs, refs := out.Bus, out.Cache, out.Refs
	reg.Counter("replay.seek_ns").Add(uint64(out.SeekTime))
	reg.Counter("trace.decode_ns").Add(uint64(out.DecodeTime))
	reg.Counter("replay.stall_ns").Add(uint64(out.StallTime))
	if err := stopProfiles(); err != nil {
		fail(err)
	}
	fmt.Printf("replayed %d references: %d bus cycles, miss ratio %.4f, mem busy %d\n",
		refs, bs.TotalCycles, cs.MissRatio(), bs.MemBusyCycles)
	for p := bus.Pattern(0); p < bus.NumPatterns; p++ {
		if bs.CountByPattern[p] > 0 {
			fmt.Printf("  %-20s %8d ops %10d cycles\n", p, bs.CountByPattern[p], bs.CyclesByPattern[p])
		}
	}
	if err := probes.Report(os.Stdout); err != nil {
		fail(err)
	}
	if wantManifest {
		man.Config = obs.NewRunConfig(pes, ccfg, timing, *optsName, mode)
		man.Trace = &obs.TraceInfo{
			SHA256:      obs.HexDigest(digest.Sum(nil)),
			Refs:        refs,
			PEs:         pes,
			LayoutWords: layoutWords,
		}
		man.Stats = obs.NewRunStats(refs, cs, bs)
		man.Timing.TraceFile = fs.Arg(0)
		man.Timing.Profiles = prof.Paths()
		// The throughput counts only the references this run replayed,
		// over its replay time: a resume's restore and seek are
		// replay.seek_ns, not work. Its statistics still cover the whole
		// trace.
		man.FinishTiming(ph, reg, refs-resumedAt, (elapsed - out.SeekTime).Seconds())
		if err := man.WriteFile(*manifestPath); err != nil {
			fail(err)
		}
	}
}
