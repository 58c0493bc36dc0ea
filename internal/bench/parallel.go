package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pimcache/internal/par"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// Parallel evaluation engine.
//
// The evaluation is embarrassingly parallel: every live run builds its
// own machine.Machine, and every replay builds its own machine and shares
// only a read-only *trace.Trace with its siblings. collectParallel turns
// Collect into an explicit job graph executed on a bounded worker pool:
//
//   - one live-run job per (benchmark, PE count) of the PE sweep;
//   - the live run at Options.PEs is the record job: it additionally
//     captures the benchmark's reference stream, and on completion
//     submits one job per distinct replay of the benchmark's replay table
//     (see replayTable) — replay jobs are gated on the trace existing,
//     never blocked waiting for it inside a worker;
//   - each replay job keeps its result in its own replayRun, and Data is
//     filled from the table only after the pool drains, so it is
//     byte-identical to the serial path regardless of completion order;
//   - a per-benchmark consumer count releases the trace as soon as its
//     last replay finishes, so traces do not accumulate for the whole
//     run.
type benchState struct {
	bench programs.Benchmark
	bd    *BenchData

	// live results, indexed by position in Options.PESweep.
	live []*RunData

	// the benchmark's replay table and its distinct replays.
	jobs []replayJob
	runs []*replayRun

	// trace lifetime management.
	mu        sync.Mutex
	tr        *trace.Trace
	consumers atomic.Int32
}

// traceDone records one finished replay; the last consumer drops the
// trace so its memory can be reclaimed while other benchmarks still run.
func (st *benchState) traceDone() {
	if st.consumers.Add(-1) == 0 {
		st.mu.Lock()
		st.tr = nil
		st.mu.Unlock()
	}
}

func (st *benchState) trace() *trace.Trace {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.tr
}

// collectParallel executes the evaluation's job graph on a worker pool of
// par.Jobs(o.Jobs) simulations.
func collectParallel(o Options) (*Data, error) {
	pw := newProgressLog(o.Progress)
	selected := selectedBenchmarks(o)

	// The record job is the root of each benchmark's graph; without it no
	// replay can run, so reject the configuration upfront (the serial
	// path discovers this after the sweep; the error is the same).
	recordIdx := -1
	for i, pes := range o.PESweep {
		if pes == o.PEs {
			recordIdx = i
			break
		}
	}
	if recordIdx < 0 && len(selected) > 0 {
		return nil, fmt.Errorf("%s: PESweep %v does not include PEs=%d",
			selected[0].Name, o.PESweep, o.PEs)
	}

	data := &Data{Options: o}
	states := make([]*benchState, len(selected))
	pool := par.NewCtx(o.ctx(), o.Jobs)
	for i, b := range selected {
		st := &benchState{
			bench: b,
			bd:    newBenchData(b, o.ScaleFor(b)),
			live:  make([]*RunData, len(o.PESweep)),
		}
		st.jobs, st.runs = o.replayTable()
		st.consumers.Store(int32(len(st.runs)))
		states[i] = st
		data.Benches = append(data.Benches, st.bd)
		submitLiveJobs(pool, pw, o, st, recordIdx)
	}
	if err := pool.Wait(); err != nil {
		return nil, err
	}
	for _, st := range states {
		for i, pes := range o.PESweep {
			st.bd.LiveByPEs[pes] = st.live[i]
		}
		storeReplays(st.bd, st.jobs)
	}
	return data, nil
}

// submitLiveJobs enqueues one live run per PE-sweep point. The record run
// (pes == Options.PEs) chains the benchmark's replay jobs.
func submitLiveJobs(pool *par.Pool, pw *progressLog, o Options, st *benchState, recordIdx int) {
	for i, pes := range o.PESweep {
		record := i == recordIdx
		pool.Go(func() error {
			rd, tr, err := o.liveRun(pw, st.bench, st.bd.Scale, pes, record)
			if err != nil {
				return err
			}
			st.live[i] = rd
			if record {
				st.bd.Refs = rd.Cache
				st.mu.Lock()
				st.tr = tr
				st.mu.Unlock()
				submitReplays(pool, pw, o, st)
			}
			return nil
		})
	}
}

// submitReplays fans a benchmark's distinct replays out as independent
// jobs. Called from inside the record job, so the trace is already
// available; Pool.Go never blocks the calling worker.
func submitReplays(pool *par.Pool, pw *progressLog, o Options, st *benchState) {
	for _, r := range st.runs {
		pool.Go(func() error {
			defer st.traceDone()
			tr := st.trace()
			if tr == nil {
				return fmt.Errorf("%s/%s: trace released early", st.bench.Name, r.labels[0])
			}
			return o.replay(pw, st.bench.Name, tr, r)
		})
	}
}
