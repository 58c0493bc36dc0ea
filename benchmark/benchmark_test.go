package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesWorkloads pins BENCHMARK.json's workload list to the
// program's.
func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	ws := workloads(false)
	if len(s.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(ws))
	}
	for i, w := range ws {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, s.Workloads[i].Name, s.Workloads[i].Why, w.Name, w.Why)
		}
	}
}

// TestCheckerRejectsMismatch shows the correctness gate fails a pass
// whose gated stats differ, and ignores a new trailing zero counter.
func TestCheckerRejectsMismatch(t *testing.T) {
	w := workload{Name: "w", Inputs: []input{{Bench: "Semi", Scale: 1}}}
	want := simStats{Refs: 10, TotalCycles: 7, CyclesByArea: []uint64{1, 2}, CountByPattern: []uint64{3}, Misses: 1}
	chk := newChecker(expectation{Inputs: []simStats{want}}, true, w, 1)
	same := want
	same.CountByPattern = []uint64{3, 0}
	if err := chk.check([]simStats{same}, w); err != nil {
		t.Errorf("trailing zero slot: %v", err)
	}
	for _, mutate := range []func(*simStats){
		func(s *simStats) { s.Refs++ },
		func(s *simStats) { s.TotalCycles++ },
		func(s *simStats) { s.MemBusyCycles++ },
		func(s *simStats) { s.CyclesByArea = []uint64{1, 3} },
		func(s *simStats) { s.CountByPattern = []uint64{3, 1} },
		func(s *simStats) { s.Misses++ },
	} {
		got := want
		got.CyclesByArea = slices.Clone(want.CyclesByArea)
		mutate(&got)
		if err := chk.check([]simStats{got}, w); err == nil {
			t.Errorf("stats %v passed the gate for %v", got, want)
		}
	}
}

// TestSmoke runs every workload at about 200k references through the
// same code paths and checks as a full run: the end-to-end measurement
// and the traced run. Both must pass every check against the committed
// stats and goldens, and print exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands")
	}
	s := loadSpec(t)
	e, err := newEnv(context.Background(), "..")
	if err != nil {
		t.Fatal(err)
	}
	e.bin = t.TempDir()
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	exp, err := e.loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	o := opts{seed: 1, seconds: 0.5, smoke: true}
	for _, w := range workloads(true) {
		t.Run(w.Name, func(t *testing.T) {
			if chk := newChecker(exp[w.Key], true, w, o.seed); chk.want == nil {
				t.Fatalf("%s has no stats for %s", expectedFile, w.Key)
			}
			for _, traced := range []bool{false, true} {
				e.work = t.TempDir()
				var r *result
				var err error
				want := names(s.EndToEnd)
				if traced {
					r, err = runTraced(e, w, o, exp, newTracer())
					want = names(s.PerLayer)
				} else {
					r, err = runCLI(e, w, o, exp)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed > 0 || r.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, r.Failed, r.Attempted, r.Errors)
				}
				var got []string
				for _, m := range r.Metrics {
					got = append(got, m.Name+" "+m.Unit)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, got, want)
				}
			}
		})
	}
}
