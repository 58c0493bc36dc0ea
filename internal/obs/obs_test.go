package obs

import (
	"testing"
)

// TestMetricsZeroAlloc pins the zero-overhead contract: the metric hot
// path allocates nothing, whether the handles are live or nil. This is
// the license for holding obs handles unconditionally in the replay
// loop.
func TestMetricsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("refs")

	var nilC *Counter
	var nilHB *Heartbeat

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Add(3); c.Inc() }},
		{"nil-counter", func() { nilC.Add(3); nilC.Inc() }},
		{"nil-heartbeat", func() { nilHB.Add(64); nilHB.SetBytes(4096) }},
		{"nil-span-end", func() { var s *Span; s.End() }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
		}
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter(name) not stable across calls")
	}

	var nr *Registry
	if nr.Counter("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	if nr.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_counter").Add(1)
	r.Counter("a_counter").Add(2)
	r.Counter("m_counter").Add(8)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	want := []Metric{
		{Name: "a_counter", Kind: "counter", Value: 2},
		{Name: "m_counter", Kind: "counter", Value: 8},
		{Name: "z_counter", Kind: "counter", Value: 1},
	}
	for i, m := range snap {
		if m != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, m, want[i])
		}
	}
}
