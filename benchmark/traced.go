package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// tracedPasses is how many control, traced and CLI passes the traced
// run alternates.
const tracedPasses = 5

// gcDelta is the Go runtime's allocator work over an interval.
type gcDelta struct {
	allocMB, cycles, pauseMs float64
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (g *gcDelta) add(before, after runtime.MemStats) {
	g.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	g.cycles += float64(after.NumGC - before.NumGC)
	g.pauseMs += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// runTraced is the traced run. It prepares the inputs in-process, warms
// the page cache with one CLI pass, then alternates an in-process
// control pass, a traced pass and a CLI pass tracedPasses times. The
// traced pass records spans at each layer boundary and times every 64th
// reference alone; the control pass is the same loop without timers.
// Evaluation workloads also run bench.Collect in-process and pimbench
// once.
func runTraced(e *env, w workload, o opts, exp map[string]expectation, tr *tracer) (*result, error) {
	r := &result{Workload: w.Name, key: w.Key}
	want, ok := exp[w.Key]
	chk := newChecker(want, ok && !o.bless, w, o.seed)
	paths := inputPaths(e, w)

	var gens, writes []float64
	var liveRefs int
	for rep := 0; rep < w.SetupReps; rep++ {
		var gen, write time.Duration
		var err error
		liveRefs = 0
		for i, in := range w.Inputs {
			g, wr, n, gerr := genInput(in, o.seed, paths[i])
			if err = gerr; err == nil && chk.want != nil && uint64(n) != chk.want[i].Refs {
				err = fmt.Errorf("input %s has %d references, want %d", in.name(), n, chk.want[i].Refs)
			}
			if err != nil {
				break
			}
			gen, write, liveRefs = gen+g, write+wr, liveRefs+n
		}
		if r.op(err) {
			gens, writes = append(gens, gen.Seconds()), append(writes, write.Seconds())
		}
	}
	if len(gens) == 0 {
		return nil, fmt.Errorf("every set-up failed: %s", strings.Join(r.Errors, "; "))
	}
	if !r.op(ignore(replayCLI(e, w, paths, chk))) {
		return r, nil
	}
	var refs float64
	for _, s := range chk.want {
		refs += float64(s.Refs)
	}

	timer := float64(timerCost())
	var control, traced, cli, read, digest, decode, replay, mnew, alloc []float64
	var gc gcDelta
	var sim []simStats
	smp := &samples{}
	for k := 0; k < tracedPasses; k++ {
		before := memStats()
		t0 := nanotime()
		got, _, err := replayAll(paths, w.Protocol, nil, nil)
		ctl := nanotime() - t0
		gc.add(before, memStats())
		if err == nil {
			err = chk.check(got, w)
		}
		if !r.op(err) {
			continue
		}
		control = append(control, float64(ctl))

		tr.workload, tr.pass = w.Name, k
		from, nSamples := len(tr.spans), len(smp.local)+len(smp.remote)
		tr.begin("pass")
		got, allocMB, err := replayAll(paths, w.Protocol, tr, smp)
		tr.end()
		if err == nil {
			err = chk.check(got, w)
		}
		if !r.op(err) {
			continue
		}
		sim = got
		self := tr.selfTimes(from)
		traced = append(traced, float64(tr.spans[from].end-tr.spans[from].start))
		read = append(read, float64(self["trace.read"]))
		digest = append(digest, float64(self["trace.digest"]))
		decode = append(decode, float64(self["trace.next"]))
		sampled := len(smp.local) + len(smp.remote) - nSamples
		replay = append(replay, float64(self["replay.chunk"])-float64(sampled)*timer)
		mnew = append(mnew, float64(self["machine.new"]))
		alloc = append(alloc, allocMB)

		res, err := replayCLI(e, w, paths, chk)
		if r.op(err) {
			cli = append(cli, float64(res.wall))
		}
	}
	if len(control) == 0 || len(traced) == 0 || len(cli) == 0 {
		return r, nil
	}

	n := len(traced)
	perRef := func(v []float64) float64 { return median(v) / refs }
	layers := median(read) + median(digest) + median(decode) + median(replay) + median(mnew)
	local, remote := adjust(smp.local, timer), adjust(smp.remote, timer)
	localSum, remoteSum := sum(local), sum(remote)
	r.add("trace.read_ns_per_ref", perRef(read), "ns/ref", n)
	r.add("trace.digest_ns_per_ref", perRef(digest), "ns/ref", n)
	r.add("trace.decode_ns_per_ref", perRef(decode), "ns/ref", n)
	r.add("replay.ns_per_ref", perRef(replay), "ns/ref", n)
	r.add("machine.new_ms", median(mnew)/1e6, "ms", n)
	r.add("machine.new_alloc_mb", median(alloc), "MB", n)
	r.add("cache.local_ns", mean(local), "ns", len(local))
	r.add("cache.local_ns_p50", median(local), "ns", len(local))
	r.add("cache.local_share", localSum/(localSum+remoteSum), "ratio", len(local)+len(remote))
	r.add("bus.remote_ns", mean(remote), "ns", len(remote))
	r.add("bus.remote_ns_p50", median(remote), "ns", len(remote))
	r.add("residual_ns_per_ref", (median(control)-layers)/refs, "ns/ref", len(control))
	r.add("cli.overhead_ms", (median(cli)-median(control))/1e6, "ms", len(cli))
	r.add("tracing.overhead_pct", (median(traced)/median(control)-1)*100, "%", n)
	r.add("setup.gen_s", median(gens), "s", len(gens))
	r.add("setup.write_s", median(writes), "s", len(writes))

	// The allocator work of one control pass, or for the evaluation
	// workload of one in-process evaluation, per simulated reference.
	passes := float64(len(control))
	gc = gcDelta{gc.allocMB / passes, gc.cycles / passes, gc.pauseMs / passes}
	gcRefs := refs
	if w.Eval != nil {
		if ev, ok := evalTraced(e, w, r, want, o); ok {
			gc, gcRefs = ev, float64(r.observed.Refs)
		}
	}
	r.add("gc.alloc_mb_per_mref", gc.allocMB/(gcRefs/1e6), "MB/Mref", len(control))
	r.add("gc.cycles", gc.cycles, "count", len(control))
	r.add("gc.pause_ms", gc.pauseMs, "ms", len(control))

	var misses, lookups, lrHits, lrTotal, cycles, busy, txns uint64
	for _, s := range sim {
		misses, lookups = misses+s.Misses, lookups+s.Lookups
		lrHits, lrTotal = lrHits+s.LRHits, lrTotal+s.LRTotal
		cycles, busy = cycles+s.TotalCycles, busy+s.MemBusyCycles
		txns += sum64(s.CountByPattern)
	}
	r.add("cache.miss_ratio", ratio(misses, lookups), "ratio", 1)
	r.add("cache.lr_hit_ratio", ratio(lrHits, lrTotal), "ratio", 1)
	r.add("bus.cycles_per_ref", float64(cycles)/refs, "cycles/ref", 1)
	r.add("bus.txns_per_kref", float64(txns)/refs*1000, "txns/kref", 1)
	r.add("bus.mem_busy_per_ref", float64(busy)/refs, "cycles/ref", 1)

	if w.Inputs[0].Synth == "" {
		var fe []float64
		for rep := 0; rep < tracedPasses; rep++ {
			var d time.Duration
			for _, in := range w.Inputs {
				t, err := frontEnd(in)
				if !r.op(err) {
					return r, nil
				}
				d += t
			}
			fe = append(fe, float64(d))
		}
		r.note("kl1.frontend_ms", median(fe)/1e6, "ms", len(fe))
		r.note("kl1.live_mrefs_per_s", float64(liveRefs)/median(gens)/1e6, "Mrefs/s", len(gens))
	}
	r.observed.Seed = 0
	if w.seeded() {
		r.observed.Seed = o.seed
	}
	r.observed.Inputs = chk.want

	fmt.Printf("# %s: self time per pass, median of %d (%.0f refs per pass; timer cost %.0f ns removed per sample)\n",
		w.Name, tracedPasses, refs, timer)
	fmt.Printf("#   %-30s %10s %8s %9s\n", "layer", "ms", "ns/ref", "control%")
	ctl, localShare := median(control), localSum/(localSum+remoteSum)
	for _, row := range []struct {
		label string
		ns    float64
	}{
		{"trace.read", median(read)},
		{"trace.digest", median(digest)},
		{"trace.decode", median(decode)},
		{"machine.new", median(mnew)},
		{"replay", median(replay)},
		{"  cache local (sampled share)", median(replay) * localShare},
		{"  bus remote (sampled share)", median(replay) * (1 - localShare)},
		{"residual", ctl - layers},
		{"= in-process control pass", ctl},
		{"+ CLI overhead", median(cli) - ctl},
		{"= CLI pass", median(cli)},
		{"(traced pass)", median(traced)},
	} {
		fmt.Printf("#   %-30s %10.2f %8.2f %8.1f%%\n", row.label, row.ns/1e6, row.ns/refs, row.ns/ctl*100)
	}
	return r, nil
}

// evalTraced runs the evaluation in-process with bench.Collect's hooks,
// then pimbench once, and returns the allocator work of the in-process
// run. ok is false when the in-process run failed.
func evalTraced(e *env, w workload, r *result, want expectation, o opts) (gc gcDelta, ok bool) {
	before := memStats()
	ev, err := evalInProcess(*w.Eval)
	gc.add(before, memStats())
	if err == nil && !o.bless && ev.refs != want.Refs {
		err = fmt.Errorf("the evaluation simulated %d references, %s says %d", ev.refs, expectedFile, want.Refs)
	}
	if !r.op(err) {
		return gc, false
	}
	r.observed.Refs = ev.refs
	res, err := e.run("pimbench", w.Eval.args()...)
	if err == nil && !o.bless {
		err = e.checkGolden(w, res.stdout)
	}
	if r.op(err) {
		r.golden = res.stdout
		r.note("eval.cli_overhead_ms", float64(res.wall-ev.wall)/1e6, "ms", 1)
	}
	r.note("eval.collect_s", ev.wall.Seconds(), "s", 1)
	r.note("bench.live_s", ev.liveS, "s", 1)
	r.note("bench.replay_s", ev.replayS, "s", 1)
	r.note("model.table4_all_mean", ev.table4AllMean, "ratio", 1)
	if ev.twoWordRatio > 0 {
		r.note("model.two_word_ratio", ev.twoWordRatio, "ratio", 1)
	}
	return gc, true
}

// replayAll replays every input in-process once.
func replayAll(paths []string, protocol string, t *tracer, smp *samples) ([]simStats, float64, error) {
	var got []simStats
	var alloc float64
	for _, p := range paths {
		s, a, err := replayFile(p, protocol, t, smp)
		if err != nil {
			return nil, 0, err
		}
		got, alloc = append(got, s), alloc+a
	}
	return got, alloc, nil
}

// timerCost is the median time between two back-to-back clock reads,
// which every timed sample includes once.
func timerCost() int64 {
	d := make([]float64, 10000)
	for i := range d {
		t0 := nanotime()
		d[i] = float64(nanotime() - t0)
	}
	return int64(median(d))
}

// adjust converts raw sample times to float nanoseconds with the timer
// cost removed.
func adjust(raw []int64, timer float64) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v) - timer
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func sum64(v []uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sum(v) / float64(len(v))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
