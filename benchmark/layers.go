package main

// layers.go is the benchmark's one adapter onto the simulator's internal
// packages: every in-process call the traced run makes goes through the
// functions below, so a refactor of those packages touches this file
// only.

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/safeio"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// quickScale is the scale `pimbench -quick` runs the named program at.
func quickScale(name string) int {
	b, ok := programs.ByName(name)
	if !ok {
		panic("benchmark: unknown program " + name)
	}
	return bench.Options{Quick: true}.ScaleFor(b)
}

// genInput prepares one input in-process the way `pimtrace synth` or
// `pimtrace record` does, and returns the time spent generating the
// references and writing the file.
func genInput(in input, seed int64, path string) (gen, write time.Duration, refs int, err error) {
	t0 := time.Now()
	var tr *trace.Trace
	if in.Synth != "" {
		c := synth.DefaultConfig()
		c.PEs, c.Events, c.Seed = in.PEs, in.Events, seed
		switch in.Synth {
		case "orparallel":
			tr = synth.ORParallel(c)
		case "ring":
			tr = synth.MessageRing(c)
		default:
			return 0, 0, 0, fmt.Errorf("unknown synth kind %q", in.Synth)
		}
	} else {
		b, ok := programs.ByName(in.Bench)
		if !ok {
			return 0, 0, 0, fmt.Errorf("unknown program %q", in.Bench)
		}
		if _, tr, err = bench.RunLive(b, in.Scale, in.PEs, bench.BaseCache(cache.OptionsAll()), true); err != nil {
			return 0, 0, 0, err
		}
	}
	gen = time.Since(t0)
	t1 := time.Now()
	err = safeio.WriteFile(path, tr.Write)
	return gen, time.Since(t1), tr.Len(), err
}

// frontEnd times the KL1 parser and compiler on a recorded program.
func frontEnd(in input) (time.Duration, error) {
	b, ok := programs.ByName(in.Bench)
	if !ok {
		return 0, fmt.Errorf("unknown program %q", in.Bench)
	}
	t0 := time.Now()
	prog, err := parser.Parse(b.Source(in.Scale))
	if err != nil {
		return 0, err
	}
	_, err = compile.Compile(prog, word.NewTable())
	return time.Since(t0), err
}

// sampleEvery is the sampling period of the cache/bus split: every 64th
// reference is replayed and timed alone.
const sampleEvery = 64

// samples are the times of the references replayed alone, split by
// whether the reference spent bus cycles.
type samples struct {
	local, remote []int64
}

// replayFile mirrors the `pimtrace replay` stream path in-process:
// os.Open, a timing reader, a TeeReader into SHA-256 through a timing
// writer, a 1 MiB bufio.Reader, trace.NewReader, machine.New and
// trace.NewChunkReplayer over the machine's ports. With a nil tracer and
// nil samples it is the control pass: the same loop without timers.
// allocMB is what machine.New allocated (traced passes only).
func replayFile(path, protocol string, t *tracer, smp *samples) (s simStats, allocMB float64, err error) {
	ccfg, err := cliutil.BuildCacheConfig(4<<10, 4, 4, "all", protocol)
	if err != nil {
		return s, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return s, 0, err
	}
	defer f.Close()
	digest := sha256.New()
	src := io.TeeReader(timedReader{f, t}, timedWriter{digest, t})
	d, err := trace.NewReader(bufio.NewReaderSize(src, 1<<20))
	if err != nil {
		return s, 0, err
	}
	var before runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&before)
	}
	t.begin("machine.new")
	m := machine.New(machine.Config{PEs: d.PEs(), Layout: d.Layout(), Cache: ccfg, Timing: bus.DefaultTiming()})
	t.end()
	if t != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	ports := make([]mem.Accessor, d.PEs())
	for i := range ports {
		ports[i] = m.Port(i)
	}
	cr, err := trace.NewChunkReplayer(d.PEs(), ports)
	if err != nil {
		return s, 0, err
	}
	buf := make([]trace.Ref, 4096)
	base := 0
	for {
		t.begin("trace.next")
		n, rerr := d.Next(buf)
		t.end()
		if n > 0 {
			t.begin("replay.chunk")
			err := replayChunk(cr, m.Bus(), buf[:n], base, smp)
			t.end()
			if err != nil {
				return s, 0, err
			}
			base += n
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return s, 0, rerr
		}
	}
	digest.Sum(nil) // the CLI finishes the digest for its manifest
	return statsOf(uint64(base), m.BusStats(), m.CacheStats()), allocMB, nil
}

// replayChunk replays refs in bulk except every sampleEvery-th
// reference, which is replayed alone; with smp set that reference is
// timed and classified by whether bus cycles moved.
func replayChunk(cr *trace.ChunkReplayer, b *bus.Bus, refs []trace.Ref, base int, smp *samples) error {
	for i := 0; i < len(refs); {
		next := min(i+(sampleEvery-(base+i)%sampleEvery)%sampleEvery, len(refs))
		if next > i {
			if err := cr.Replay(refs[i:next], base+i); err != nil {
				return err
			}
			i = next
			continue
		}
		if smp == nil {
			if err := cr.Replay(refs[i:i+1], base+i); err != nil {
				return err
			}
		} else {
			c0 := b.Stats().TotalCycles
			t0 := nanotime()
			err := cr.Replay(refs[i:i+1], base+i)
			dt := nanotime() - t0
			if err != nil {
				return err
			}
			if b.Stats().TotalCycles != c0 {
				smp.remote = append(smp.remote, dt)
			} else {
				smp.local = append(smp.local, dt)
			}
		}
		i++
	}
	return nil
}

// statsOf extracts the gated statistics and the model ratios the traced
// run reports.
func statsOf(refs uint64, bs bus.Stats, cs cache.Stats) simStats {
	s := simStats{
		Refs:           refs,
		TotalCycles:    bs.TotalCycles,
		MemBusyCycles:  bs.MemBusyCycles,
		CyclesByArea:   bs.CyclesByArea[:],
		CountByPattern: bs.CountByPattern[:],
		LRHits:         cs.LRHits(),
		LRTotal:        cs.LRTotal(),
	}
	for op := range cs.Misses {
		s.Misses += cs.Misses[op]
		s.Lookups += cs.Misses[op] + cs.Hits[op]
	}
	return s
}

// evalLayers is the in-process evaluation's split.
type evalLayers struct {
	refs          uint64        // references simulated: live runs plus replays
	wall          time.Duration // bench.Collect
	liveS         float64       // Collect's live/* phases
	replayS       float64       // Collect's replay/* phases
	table4AllMean float64       // Table 4 "All" column mean
	twoWordRatio  float64       // two-word over one-word bus cycles, mean (0 without sweeps)
}

// evalInProcess runs bench.Collect with the options `pimbench` derives
// from s, with its phase and metric hooks on.
func evalInProcess(s evalSpec) (evalLayers, error) {
	o := bench.DefaultOptions()
	o.Quick, o.Jobs = true, 1
	if s.Bench != "" {
		o.Benchmarks = []string{s.Bench}
	}
	o.SkipSweeps = s.Table != 0
	o.Phases, o.Metrics = obs.NewPhases(), obs.NewRegistry()
	t0 := time.Now()
	d, err := bench.Collect(o)
	out := evalLayers{wall: time.Since(t0)}
	if err != nil {
		return out, err
	}
	for _, p := range o.Phases.Summary() {
		switch {
		case strings.HasPrefix(p.Path, "live/"):
			out.liveS += p.Seconds
		case strings.HasPrefix(p.Path, "replay/"):
			out.replayS += p.Seconds
		}
	}
	out.refs = o.Metrics.Counter("bench.replay.refs").Value()
	n := float64(len(d.Benches))
	for _, bd := range d.Benches {
		for _, rd := range bd.LiveByPEs {
			out.refs += rd.Cache.TotalRefs()
		}
		all := bd.OptBus["All"].TotalCycles
		out.table4AllMean += float64(all) / float64(bd.OptBus["None"].TotalCycles) / n
		if bd.Width2.TotalCycles > 0 {
			out.twoWordRatio += float64(bd.Width2.TotalCycles) / float64(all) / n
		}
	}
	return out, nil
}
