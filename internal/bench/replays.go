package bench

import (
	"fmt"
	"strings"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/trace"
)

// replayKey is everything a replay's statistics depend on besides the
// trace. Both fields are comparable values, so rows with equal keys
// replay identically and can share one replay.
type replayKey struct {
	cfg    cache.Config
	timing bus.Timing
}

// replayJob is one row of a benchmark's replay table: a labelled
// configuration and the store that writes its result into BenchData.
type replayJob struct {
	label string
	replayKey
	store func(bd *BenchData, bs bus.Stats, cs cache.Stats)
	// run is the distinct replay that serves this row.
	run *replayRun
}

// replayRun is one distinct replay of a benchmark's trace, the labels of
// the rows it serves (in table order) and, once run, its result.
type replayRun struct {
	replayKey
	labels []string
	bus    bus.Stats
	cache  cache.Stats
}

// replayTable returns a benchmark's replay table and its distinct
// replays: the rows in assembly order, and one run per distinct key in
// first-use order, each row pointing at the run that serves it. The
// sweeps all pass through the base cache, so the Table 4 "All" row and
// the block=4, capacity=4096 and ways=4 points share one run.
func (o Options) replayTable() ([]replayJob, []*replayRun) {
	jobs := o.replayJobs()
	byKey := map[replayKey]*replayRun{}
	var runs []*replayRun
	for i := range jobs {
		j := &jobs[i]
		r := byKey[j.replayKey]
		if r == nil {
			r = &replayRun{replayKey: j.replayKey}
			byKey[j.replayKey] = r
			runs = append(runs, r)
		}
		r.labels = append(r.labels, j.label)
		j.run = r
	}
	return jobs, runs
}

// replayJobs is the one enumeration of the replays Collect runs per
// benchmark: the Table 4 variants, then (unless SkipSweeps) the Figure 1
// and Figure 2 sweeps, the Section 4.3 associativity ablation, the
// two-word bus, and one unoptimized replay per registered protocol
// but PIM.
func (o Options) replayJobs() []replayJob {
	var jobs []replayJob
	add := func(label string, cfg cache.Config, timing bus.Timing, store func(*BenchData, bus.Stats, cache.Stats)) {
		jobs = append(jobs, replayJob{label: label, replayKey: replayKey{cfg, timing}, store: store})
	}
	dt := bus.DefaultTiming()
	for _, v := range cache.OptionSets {
		add(v.Name, o.baseCache(v.Opts), dt, func(bd *BenchData, bs bus.Stats, cs cache.Stats) {
			bd.OptBus[v.Name], bd.OptCache[v.Name] = bs, cs
		})
	}
	if o.SkipSweeps {
		return jobs
	}
	point := func(param, dirBits int, bs bus.Stats, cs cache.Stats) SweepPoint {
		return SweepPoint{Param: param, MissRatio: cs.MissRatio(), BusCycles: bs.TotalCycles, DirectoryBits: dirBits}
	}
	for _, bw := range o.BlockSizes {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.BlockWords = bw
		add(fmt.Sprintf("block=%d", bw), cfg, dt, func(bd *BenchData, bs bus.Stats, cs cache.Stats) {
			bd.BlockSweep = append(bd.BlockSweep, point(bw, cfg.DirectoryBits(), bs, cs))
		})
	}
	for _, size := range o.Capacities {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.SizeWords = size
		add(fmt.Sprintf("capacity=%d", size), cfg, dt, func(bd *BenchData, bs bus.Stats, cs cache.Stats) {
			bd.CapSweep = append(bd.CapSweep, point(size, cfg.DirectoryBits(), bs, cs))
		})
	}
	for _, ways := range o.Associativities {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.Ways = ways
		add(fmt.Sprintf("ways=%d", ways), cfg, dt, func(bd *BenchData, bs bus.Stats, cs cache.Stats) {
			bd.WaySweep = append(bd.WaySweep, point(ways, 0, bs, cs))
		})
	}
	add("two-word bus", o.baseCache(cache.OptionsAll()), bus.Timing{MemCycles: 8, WidthWords: 2},
		func(bd *BenchData, bs bus.Stats, _ cache.Stats) { bd.Width2 = bs })
	// The protocol baselines replay unoptimized, in registry order. PIM's
	// is the Table 4 "None" row.
	for _, p := range cache.Protocols() {
		if p == cache.ProtocolPIM {
			continue
		}
		cfg := o.baseCache(cache.OptionsNone())
		cfg.Protocol = p
		add(p.String(), cfg, dt, func(bd *BenchData, bs bus.Stats, _ cache.Stats) { bd.ProtoBus[p] = bs })
	}
	return jobs
}

// replay runs r against tr and keeps its result in r. Both engines run
// every distinct replay through here, so it owns the shared bookkeeping:
// the progress line, the replay/<bench> phase span, the <bench>/<label>
// error label, and the counters. bench.replay.jobs and bench.replay.refs
// count every row r serves, as if each had replayed the trace;
// bench.replay.reused counts the rows served by another row's replay.
func (o Options) replay(pw *progressLog, bench string, tr *trace.Trace, r *replayRun) error {
	if err := o.ctx().Err(); err != nil {
		return err
	}
	pw.Printf(bench, "replay %s (%d refs)", strings.Join(r.labels, ", "), tr.Len())
	rows := uint64(len(r.labels))
	o.Metrics.Counter("bench.replay.jobs").Add(rows)
	o.Metrics.Counter("bench.replay.refs").Add(rows * uint64(tr.Len()))
	o.Metrics.Counter("bench.replay.reused").Add(rows - 1)
	sp := o.Phases.Start("replay/" + bench)
	defer sp.End()
	var err error
	if r.bus, r.cache, err = ReplayConfig(tr, r.cfg, r.timing, nil); err != nil {
		return fmt.Errorf("%s/%s: %w", bench, r.labels[0], err)
	}
	return nil
}

// storeReplays fills bd from the finished replays, row by row in table
// order — the one assembly pass both engines share.
func storeReplays(bd *BenchData, jobs []replayJob) {
	for _, j := range jobs {
		j.store(bd, j.run.bus, j.run.cache)
	}
}
