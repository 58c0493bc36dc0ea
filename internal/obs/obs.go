// Package obs is the simulator's self-observability layer: metrics,
// phase timers, streaming-replay heartbeats, and structured run
// manifests for the *simulator itself* — the measurement infrastructure
// that packages probe and stats provide for the *simulated machine*.
//
// The paper's argument is quantitative, and so is this repository's:
// every PR's claim to a speedup or an equivalence rests on measured
// throughput and bit-identical statistics. obs makes those measurements
// first-class instead of hand-copied: commands emit run manifests
// (Manifest) whose deterministic sections are byte-identical across
// runs, cmd/pimreport diffs and gates them, and docs/baselines holds
// the blessed reference points.
//
// # Zero overhead when disabled
//
// Like package probe, every obs handle is nil-safe: a nil *Counter,
// *Registry, *Phases, *Span or *Heartbeat accepts every method as a
// no-op costing one branch and zero allocations (pinned by
// TestMetricsZeroAlloc). Components therefore hold obs handles
// unconditionally and never guard call sites; passing nil disables the
// instrumentation exactly.
//
// # Concurrency
//
// Counter is lock-free (atomic) and safe for concurrent use from
// simulation workers. Registry and Phases guard registration and span
// completion with a mutex; the per-event hot path (Add, and a Span's
// End) stays allocation-free.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a named collection of metrics. Handles are registered on
// first use and stable thereafter (Counter("x") always returns the
// same *Counter). A nil Registry returns nil handles, so a disabled
// registry costs one branch per metric operation and nothing else.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
}

// NewRegistry makes an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*Counter{}}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (a no-op handle).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Metric is one snapshotted metric value, in the shape the run
// manifest records.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // always "counter"
	Value int64  `json:"value"`
}

// Snapshot returns every registered metric, sorted by name (a
// deterministic order regardless of registration interleaving). A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: int64(c.Value())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
