package bench

import (
	"sync"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/obs"
	"pimcache/internal/trace"
)

// warmKey identifies a replay's simulated outcome. The trace is fixed per
// WarmCache, so the cache configuration and bus timing determine every
// statistic; both types are comparable value types.
type warmKey struct {
	cfg    cache.Config
	timing bus.Timing
}

// WarmCache shares warmed checkpoints among replay jobs with identical
// cache configuration and bus timing. A sweep necessarily revisits its
// base configuration — the Table 4 "All" variant reappears as the
// block-size, capacity and associativity sweeps' base points — and cache
// state depends on the configuration from reference zero, so only
// identical configurations can share state. For each registered
// configuration requested more than once, the first replay runs the
// prefix [0, warmRefs), checkpoints the machine, publishes the snapshot
// and finishes its own suffix; later replays restore the checkpoint and
// replay only [warmRefs, n), skipping the shared prefix entirely.
//
// Concurrency: Replay never blocks waiting for another job's checkpoint —
// under the bounded worker pool that wait could deadlock (the producer's
// job may be queued behind the waiter). A job that finds the checkpoint
// still being computed replays cold instead; results are bit-identical
// either way (that is the checkpoint contract, pinned by
// TestCheckpointResume), so scheduling changes wall-clock only, never
// output.
type WarmCache struct {
	warmRefs int
	mu       sync.Mutex
	entries  map[warmKey]*warmEntry
}

type warmEntry struct {
	// expected counts registrations; snapshots are taken only for keys
	// expected more than once (a lone replay gains nothing and a
	// checkpoint costs a memory-image copy).
	expected int
	// remaining counts replays still to come; the snapshot is released
	// when it reaches zero so checkpoint memory is bounded by the live
	// duplicate groups, not the whole sweep.
	remaining int
	computing bool
	snap      *machine.Snapshot
}

// NewWarmCache makes a warm cache that checkpoints after warmRefs
// references of the trace it is used with. Callers register every replay
// they will request before the first Replay call.
func NewWarmCache(warmRefs int) *WarmCache {
	return &WarmCache{warmRefs: warmRefs, entries: map[warmKey]*warmEntry{}}
}

// Register announces an upcoming Replay with this configuration.
func (wc *WarmCache) Register(ccfg cache.Config, timing bus.Timing) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	key := warmKey{ccfg, timing}
	e := wc.entries[key]
	if e == nil {
		e = &warmEntry{}
		wc.entries[key] = e
	}
	e.expected++
	e.remaining++
}

// Replay is ReplayConfig through the warm cache: configurations
// registered more than once share the warmed prefix. Safe for concurrent
// use by replay jobs.
func (wc *WarmCache) Replay(tr *trace.Trace, ccfg cache.Config, timing bus.Timing) (bus.Stats, cache.Stats, error) {
	key := warmKey{ccfg, timing}
	wc.mu.Lock()
	e := wc.entries[key]
	if e == nil || e.expected < 2 || wc.warmRefs <= 0 || wc.warmRefs >= tr.Len() {
		wc.mu.Unlock()
		return ReplayConfig(tr, ccfg, timing)
	}
	if e.snap != nil {
		snap := e.snap
		e.remaining--
		if e.remaining == 0 {
			e.snap = nil
		}
		wc.mu.Unlock()
		return replayFromSnapshot(tr, ccfg, timing, snap)
	}
	if e.computing {
		e.remaining--
		wc.mu.Unlock()
		return ReplayConfig(tr, ccfg, timing)
	}
	e.computing = true
	wc.mu.Unlock()

	m, cr, err := newReplayMachine(tr.PEs, tr.Layout, ccfg, timing, nil)
	if err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	if err := cr.Replay(tr.Refs[:wc.warmRefs], 0); err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	snap := m.Checkpoint()
	snap.RefsReplayed = wc.warmRefs
	wc.mu.Lock()
	e.remaining--
	if e.remaining > 0 {
		e.snap = snap
	}
	wc.mu.Unlock()
	if err := cr.Replay(tr.Refs[wc.warmRefs:], wc.warmRefs); err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	return m.BusStats(), m.CacheStats(), nil
}

// replayFromSnapshot resumes a replay from a warmed checkpoint.
func replayFromSnapshot(tr *trace.Trace, ccfg cache.Config, timing bus.Timing, snap *machine.Snapshot) (bus.Stats, cache.Stats, error) {
	m, cr, err := newReplayMachine(tr.PEs, tr.Layout, ccfg, timing, nil)
	if err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	if err := m.Restore(snap); err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	if err := cr.Replay(tr.Refs[snap.RefsReplayed:], snap.RefsReplayed); err != nil {
		return bus.Stats{}, cache.Stats{}, err
	}
	return m.BusStats(), m.CacheStats(), nil
}

// replayer routes a benchmark's replay jobs either cold (ReplayConfig) or
// through a shared WarmCache when Options.WarmedSweeps is set.
type replayer struct {
	warm    *WarmCache
	metrics *obs.Registry
}

// newReplayer builds the per-benchmark replayer: with warmed sweeps on it
// registers every replay configuration the sweep will request, so the
// warm cache knows which configurations recur and deserve a checkpoint.
func (o Options) newReplayer(traceLen int) *replayer {
	r := &replayer{metrics: o.Metrics}
	if !o.WarmedSweeps {
		return r
	}
	wc := NewWarmCache(traceLen / 2)
	for _, k := range o.replayKeys() {
		wc.Register(k.cfg, k.timing)
	}
	r.warm = wc
	return r
}

// Replay dispatches one replay job.
func (r *replayer) Replay(tr *trace.Trace, ccfg cache.Config, timing bus.Timing) (bus.Stats, cache.Stats, error) {
	r.metrics.Counter("bench.replay.jobs").Inc()
	r.metrics.Counter("bench.replay.refs").Add(uint64(tr.Len()))
	if r.warm != nil {
		return r.warm.Replay(tr, ccfg, timing)
	}
	return ReplayConfig(tr, ccfg, timing)
}

// replayKeys enumerates the (configuration, timing) of every replay job
// Collect issues per benchmark, in the serial path's order. It must stay
// in lockstep with collectSerial/submitReplayJobs; the warmed-determinism
// test would catch a drift as a cold (but still correct) replay, and the
// count is cross-checked against replayConsumers in tests.
func (o Options) replayKeys() []warmKey {
	var keys []warmKey
	dt := bus.DefaultTiming()
	for _, v := range OptVariants {
		keys = append(keys, warmKey{o.baseCache(v.Opts), dt})
	}
	if o.SkipSweeps {
		return keys
	}
	for _, bw := range o.BlockSizes {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.BlockWords = bw
		keys = append(keys, warmKey{cfg, dt})
	}
	for _, size := range o.Capacities {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.SizeWords = size
		keys = append(keys, warmKey{cfg, dt})
	}
	for _, ways := range o.Associativities {
		cfg := o.baseCache(cache.OptionsAll())
		cfg.Ways = ways
		keys = append(keys, warmKey{cfg, dt})
	}
	keys = append(keys, warmKey{o.baseCache(cache.OptionsAll()), bus.Timing{MemCycles: 8, WidthWords: 2}})
	ill := o.baseCache(cache.OptionsNone())
	ill.Protocol = cache.ProtocolIllinois
	keys = append(keys, warmKey{ill, dt})
	wt := o.baseCache(cache.OptionsNone())
	wt.Protocol = cache.ProtocolWriteThrough
	keys = append(keys, warmKey{wt, dt})
	for _, ap := range altProtocols() {
		cfg := o.baseCache(cache.OptionsNone())
		cfg.Protocol = ap
		keys = append(keys, warmKey{cfg, dt})
	}
	return keys
}
