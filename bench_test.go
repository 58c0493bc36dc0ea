// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus simulator-throughput and component benchmarks.
//
//	go test -bench=. -benchmem            # everything, quick scales
//	go test -bench=BenchmarkTable4 -v     # one table, printed
//
// Each BenchmarkTableN/BenchmarkFigureN regenerates its table or figure
// from a shared quick-scale dataset (collected once) and reports the
// headline quantity as a custom metric; run with -v to see the rendered
// rows. cmd/pimbench regenerates the same artifacts at paper scales.
package pimcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/parser"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
	"pimcache/internal/stats"
	"pimcache/internal/synth"
)

var evalData struct {
	once sync.Once
	d    *bench.Data
	err  error
}

// dataset collects the quick-scale evaluation once per test binary.
func dataset(b *testing.B) *bench.Data {
	evalData.once.Do(func() {
		o := bench.DefaultOptions()
		o.Quick = true
		evalData.d, evalData.err = bench.Collect(o)
	})
	if evalData.err != nil {
		b.Fatal(evalData.err)
	}
	return evalData.d
}

func logTable(b *testing.B, t *stats.Table) {
	b.Helper()
	b.Logf("\n%s", t.String())
}

// BenchmarkTable1 regenerates the benchmark summary (Table 1).
func BenchmarkTable1(b *testing.B) {
	d := dataset(b)
	var reductions uint64
	for i := 0; i < b.N; i++ {
		t := bench.Table1(d)
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
		reductions = 0
		for _, bd := range d.Benches {
			reductions += bd.LiveByPEs[d.Options.PEs].Result.Emu.Reductions
		}
	}
	b.ReportMetric(float64(reductions), "reductions")
	logTable(b, bench.Table1(d))
}

// BenchmarkTable2 regenerates % references and bus cycles by area.
func BenchmarkTable2(b *testing.B) {
	d := dataset(b)
	for i := 0; i < b.N; i++ {
		if t := bench.Table2(d); len(t.Rows) < 8 {
			b.Fatal("table 2 incomplete")
		}
	}
	logTable(b, bench.Table2(d))
}

// BenchmarkTable3 regenerates % references by operation.
func BenchmarkTable3(b *testing.B) {
	d := dataset(b)
	for i := 0; i < b.N; i++ {
		if t := bench.Table3(d); len(t.Rows) < 6 {
			b.Fatal("table 3 incomplete")
		}
	}
	logTable(b, bench.Table3(d))
}

// BenchmarkTable4 regenerates the optimized-command effect table and
// reports the mean all-optimizations relative traffic (paper: 0.51-0.62).
func BenchmarkTable4(b *testing.B) {
	d := dataset(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = 0
		for _, bd := range d.Benches {
			mean += float64(bd.OptBus["All"].TotalCycles) / float64(bd.OptBus["None"].TotalCycles)
		}
		mean /= float64(len(d.Benches))
	}
	b.ReportMetric(mean, "rel_bus_cycles_all")
	logTable(b, bench.Table4(d))
}

// BenchmarkTable5 regenerates the lock hit-ratio table and reports the
// mean fraction of unlocks needing no bus traffic (paper: >0.97).
func BenchmarkTable5(b *testing.B) {
	d := dataset(b)
	var noWaiter float64
	for i := 0; i < b.N; i++ {
		noWaiter = 0
		for _, bd := range d.Benches {
			cs := bd.OptCache["None"]
			noWaiter += float64(cs.UnlockNoWaiter) / float64(cs.UnlockNoWaiter+cs.UnlockWaiter)
		}
		noWaiter /= float64(len(d.Benches))
	}
	b.ReportMetric(noWaiter, "unlock_no_waiter")
	logTable(b, bench.Table5(d))
}

// BenchmarkFigure1 regenerates block size vs miss ratio and bus traffic.
func BenchmarkFigure1(b *testing.B) {
	d := dataset(b)
	var best int
	for i := 0; i < b.N; i++ {
		miss, traffic := bench.Figure1(d)
		if len(miss.Points) == 0 || len(traffic.Points) == 0 {
			b.Fatal("figure 1 empty")
		}
		// The traffic-minimizing block size, averaged over benchmarks
		// (the paper picks 4 words).
		bestCycles := 0.0
		for pi, p := range traffic.Points {
			sum := 0.0
			for _, y := range p.Ys {
				sum += y
			}
			if pi == 0 || sum < bestCycles {
				bestCycles = sum
				best = d.Options.BlockSizes[pi]
			}
		}
	}
	b.ReportMetric(float64(best), "best_block_words")
	m, t := bench.Figure1(d)
	logTable(b, m.Table("%.4f"))
	logTable(b, t.Table("%.0f"))
}

// BenchmarkFigure2 regenerates capacity vs miss ratio and bus traffic.
func BenchmarkFigure2(b *testing.B) {
	d := dataset(b)
	for i := 0; i < b.N; i++ {
		miss, traffic := bench.Figure2(d)
		if len(miss.Points) != len(d.Options.Capacities) || len(traffic.Points) == 0 {
			b.Fatal("figure 2 incomplete")
		}
	}
	m, t := bench.Figure2(d)
	logTable(b, m.Table("%.4f"))
	logTable(b, t.Table("%.0f"))
}

// BenchmarkFigure3 regenerates PEs vs bus traffic and the area shift.
func BenchmarkFigure3(b *testing.B) {
	d := dataset(b)
	for i := 0; i < b.N; i++ {
		traffic, shares := bench.Figure3(d)
		if len(traffic.Points) != len(d.Options.PESweep) || len(shares.Rows) == 0 {
			b.Fatal("figure 3 incomplete")
		}
	}
	tr, sh := bench.Figure3(d)
	logTable(b, tr.Table("%.0f"))
	logTable(b, sh)
}

// BenchmarkExtraBusWidth regenerates the Section 4.4 two-word-bus
// comparison and reports the mean traffic ratio (paper: 0.62-0.75).
func BenchmarkExtraBusWidth(b *testing.B) {
	d := dataset(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bd := range d.Benches {
			ratio += float64(bd.Width2.TotalCycles) / float64(bd.OptBus["All"].TotalCycles)
		}
		ratio /= float64(len(d.Benches))
	}
	b.ReportMetric(ratio, "two_word_ratio")
	logTable(b, bench.ExtraBusWidth(d))
}

// BenchmarkExtraOptDetail regenerates the Section 4.6 in-text numbers.
func BenchmarkExtraOptDetail(b *testing.B) {
	d := dataset(b)
	for i := 0; i < b.N; i++ {
		if t := bench.ExtraOptDetail(d); len(t.Rows) == 0 {
			b.Fatal("empty")
		}
	}
	logTable(b, bench.ExtraOptDetail(d))
}

// BenchmarkExtraIllinois regenerates the Section 3.1 SM-state comparison
// and reports Illinois' memory-module occupancy relative to PIM.
func BenchmarkExtraIllinois(b *testing.B) {
	d := dataset(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bd := range d.Benches {
			ratio += float64(bd.ProtoBus[cache.ProtocolIllinois].MemBusyCycles) / float64(bd.OptBus["None"].MemBusyCycles)
		}
		ratio /= float64(len(d.Benches))
	}
	b.ReportMetric(ratio, "illinois_membusy_ratio")
	logTable(b, bench.ExtraIllinois(d))
}

// --- simulator throughput benchmarks ---

func benchmarkSimulator(b *testing.B, name string) {
	bm, ok := programs.ByName(name)
	if !ok {
		b.Fatalf("no benchmark %s", name)
	}
	var refs uint64
	for i := 0; i < b.N; i++ {
		rd, _, err := bench.RunLive(bm, bm.SmallScale, 8, bench.BaseCache(cache.OptionsAll()), false)
		if err != nil {
			b.Fatal(err)
		}
		refs = rd.Cache.TotalRefs()
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkSimulateTri measures end-to-end simulation throughput on Tri.
func BenchmarkSimulateTri(b *testing.B) { benchmarkSimulator(b, "Tri") }

// BenchmarkSimulateSemi measures end-to-end simulation throughput on
// Semi.
func BenchmarkSimulateSemi(b *testing.B) { benchmarkSimulator(b, "Semi") }

// BenchmarkSimulatePuzzle measures end-to-end simulation throughput on
// Puzzle.
func BenchmarkSimulatePuzzle(b *testing.B) { benchmarkSimulator(b, "Puzzle") }

// BenchmarkSimulatePascal measures end-to-end simulation throughput on
// Pascal.
func BenchmarkSimulatePascal(b *testing.B) { benchmarkSimulator(b, "Pascal") }

// --- component microbenchmarks ---

// BenchmarkCacheReadHit measures the simulated cache's hit path on one
// full set of the 4-way cache. way0 reads one block, so every lookup
// matches way 0. mixed cycles through a fixed order in which every
// other read hits way 0 and the reads between hit ways 1–3 in
// pseudo-random order: predictable way-0 hits and spread-out others,
// the pattern lookup's branch-free match over ways 1–3 is for
// (DESIGN.md §10).
func BenchmarkCacheReadHit(b *testing.B) {
	m := mem.New(mem.Layout{InstWords: 64, HeapWords: 8192, GoalWords: 256, SuspWords: 64, CommWords: 64})
	bsys := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: 4}, m)
	c := cache.New(cache.Config{SizeWords: 1024, BlockWords: 4, Ways: 4, LockEntries: 2}, 0, bsys)
	base := m.Bounds().HeapBase
	const stride = 1024 / 4 // words between blocks of one set: sets × block words
	for w := 0; w < 4; w++ {
		c.Read(base + stride*word.Addr(w)) // fills way w
	}
	var mixed [1024]word.Addr
	rng := rand.New(rand.NewSource(1))
	for i := range mixed {
		w := 0
		if i%2 == 1 {
			w = 1 + rng.Intn(3)
		}
		mixed[i] = base + stride*word.Addr(w) + word.Addr(i&3)
	}
	b.Run("way0", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Read(base + word.Addr(i&3))
		}
	})
	b.Run("mixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Read(mixed[i%len(mixed)])
		}
	})
}

// BenchmarkCacheCoherenceMiss measures the two-cache transfer path.
func BenchmarkCacheCoherenceMiss(b *testing.B) {
	m := mem.New(mem.Layout{InstWords: 64, HeapWords: 8192, GoalWords: 256, SuspWords: 64, CommWords: 64})
	bsys := bus.New(bus.Config{Timing: bus.DefaultTiming(), BlockWords: 4}, m)
	c0 := cache.New(cache.Config{SizeWords: 1024, BlockWords: 4, Ways: 4, LockEntries: 2}, 0, bsys)
	c1 := cache.New(cache.Config{SizeWords: 1024, BlockWords: 4, Ways: 4, LockEntries: 2}, 1, bsys)
	base := m.Bounds().HeapBase
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0.Write(base, word.Int(int64(i)))
		_ = c1.Read(base)
	}
}

// BenchmarkFGHCCompile measures parser+compiler throughput on the Tri
// source.
func BenchmarkFGHCCompile(b *testing.B) {
	bm, _ := programs.ByName("Tri")
	src := bm.Source(bm.DefaultScale)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compile.Compile(prog, word.NewTable()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraProtocols regenerates the copy-back vs write-through
// comparison and reports write-through's mean relative traffic.
func BenchmarkExtraProtocols(b *testing.B) {
	d := dataset(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bd := range d.Benches {
			ratio += float64(bd.ProtoBus[cache.ProtocolWriteThrough].TotalCycles) / float64(bd.OptBus["None"].TotalCycles)
		}
		ratio /= float64(len(d.Benches))
	}
	b.ReportMetric(ratio, "writethrough_ratio")
	logTable(b, bench.ExtraProtocols(d))
}

// BenchmarkExtraAssociativity regenerates the Section 4.3 ablation and
// reports direct-mapped traffic relative to four-way.
func BenchmarkExtraAssociativity(b *testing.B) {
	d := dataset(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bd := range d.Benches {
			var w1, w4 uint64
			for _, p := range bd.WaySweep {
				switch p.Param {
				case 1:
					w1 = p.BusCycles
				case 4:
					w4 = p.BusCycles
				}
			}
			ratio += float64(w1) / float64(w4)
		}
		ratio /= float64(len(d.Benches))
	}
	b.ReportMetric(ratio, "direct_mapped_ratio")
	logTable(b, bench.ExtraAssociativity(d))
}

// BenchmarkGarbageCollector measures the collector on a churn-heavy
// workload with a deliberately tiny semispace.
func BenchmarkGarbageCollector(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PEs = 2
	cfg.HeapWords = 64 << 10
	cfg.EnableGC = true
	bm, _ := programs.ByName("Puzzle")
	src := bm.Source(3)
	want := bm.Expected(3)
	for i := 0; i < b.N; i++ {
		res, err := Run(src, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed || res.Output != want {
			b.Fatalf("bad run: %+v", res)
		}
	}
}

// --- parallel evaluation engine benchmarks ---

// collectEngineOptions is the workload for the Collect engine benchmarks:
// one benchmark at quick scale with reduced sweeps, so one iteration is a
// complete record-and-replay job graph.
func collectEngineOptions(jobs int) bench.Options {
	return bench.Options{
		Quick:      true,
		PEs:        2,
		PESweep:    []int{1, 2},
		BlockSizes: []int{2, 4},
		Capacities: []int{512, 2 << 10},
		Benchmarks: []string{"Pascal"},
		Jobs:       jobs,
	}
}

// BenchmarkCollectSerial measures the legacy single-worker evaluation.
func BenchmarkCollectSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Collect(collectEngineOptions(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectParallel measures the worker-pool evaluation and reports
// its speedup over the serial path as a custom metric (expect ~1.0 on one
// core; it grows with available CPUs since live runs and replays are
// independent jobs).
func BenchmarkCollectParallel(b *testing.B) {
	start := time.Now()
	if _, err := bench.Collect(collectEngineOptions(1)); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(start).Seconds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Collect(collectEngineOptions(0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(serial/(b.Elapsed().Seconds()/float64(b.N)), "speedup")
}

// BenchmarkReplayThroughput measures the trace-replay hot path (the bulk
// of every sweep) in references per second.
func BenchmarkReplayThroughput(b *testing.B) {
	bm, _ := programs.ByName("Pascal")
	_, tr, err := bench.RunLive(bm, bm.SmallScale, 8, bench.BaseCache(cache.OptionsAll()), true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.ReplayConfig(tr, bench.BaseCache(cache.OptionsAll()), bus.DefaultTiming(), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}

// BenchmarkReplayPEs measures trace-replay throughput as the cluster
// scales, with the bus presence filters on (the default) and off (the
// pre-filter baseline, every transaction polling every PE). The workload
// is the OR-parallel synthetic stream — shared program reads, private
// bindings, a locked task queue and cross-worker task copying — whose
// mix of mostly-private blocks and rare locks is exactly what the
// filters exploit: each snoop and lock poll shrinks from O(PEs) to
// O(actual holders), so the filtered/unfiltered gap widens with PE
// count. Both modes replay stats-only through the one cache.Apply loop
// and produce bit-identical statistics. docs/eval_snapshot.txt records
// the measured speedups.
func BenchmarkReplayPEs(b *testing.B) {
	for _, pes := range []int{1, 4, 8, 16} {
		sc := synth.DefaultConfig()
		sc.PEs = pes
		sc.Events = 200_000
		tr := synth.ORParallel(sc)
		for _, mode := range []struct {
			name    string
			disable bool
		}{
			{name: "filtered"},
			{name: "unfiltered", disable: true},
		} {
			cfg := bench.BaseCache(cache.OptionsAll())
			cfg.DisableBusFilters = mode.disable
			b.Run(fmt.Sprintf("pes=%d/%s", pes, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := bench.ReplayConfig(tr, cfg, bus.DefaultTiming(), nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
			})
		}
	}
}

// BenchmarkReplayProbe measures the telemetry layer's cost on the
// replay hot path: "off" is the plain nil-sink replay (the emit sites
// are one untaken branch each, and the probe clock never ticks),
// "counting" attaches a minimal sink, and "intervals" a real consumer.
// The off/plain gap is the overhead the zero-overhead-when-nil
// contract bounds; the enabled rows price the full event stream.
func BenchmarkReplayProbe(b *testing.B) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 200_000
	tr := synth.ORParallel(sc)
	cfg := bench.BaseCache(cache.OptionsAll())
	modes := []struct {
		name string
		sink func() probe.Sink
	}{
		{"off", func() probe.Sink { return nil }},
		{"counting", func() probe.Sink { return &countingSink{} }},
		{"intervals", func() probe.Sink { return probe.NewIntervals(10_000) }},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.ReplayConfig(tr, cfg, bus.DefaultTiming(), mode.sink()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
		})
	}
}

// countingSink is the cheapest possible consumer: it prices the emit
// plumbing itself rather than any particular aggregation.
type countingSink struct{ n uint64 }

func (c *countingSink) Emit(probe.Event) { c.n++ }

// BenchmarkSimulateRecordPuzzle is BenchmarkSimulatePuzzle with trace
// recording on; with -benchmem it shows the recorder's allocation profile
// (the capacity hint keeps the stream to a handful of allocations).
func BenchmarkSimulateRecordPuzzle(b *testing.B) {
	bm, _ := programs.ByName("Puzzle")
	var refs int
	for i := 0; i < b.N; i++ {
		_, tr, err := bench.RunLive(bm, bm.SmallScale, 8, bench.BaseCache(cache.OptionsAll()), true)
		if err != nil {
			b.Fatal(err)
		}
		refs = tr.Len()
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
}
