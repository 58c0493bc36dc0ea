package bench

import (
	"strings"
	"testing"

	"pimcache/internal/bench/programs"
	"pimcache/internal/cache"
	"pimcache/internal/obs"
)

// TestReplayTableSharesBaseConfig pins the table's shape under the
// paper's options: 26 rows, of which the Table 4 "All" column and the
// block=4, capacity=4096 and ways=4 sweep points are one configuration
// (the base cache with every optimization), so 23 distinct replays. A
// table-only run has just the five Table 4 variants, all distinct.
func TestReplayTableSharesBaseConfig(t *testing.T) {
	jobs, runs := DefaultOptions().replayTable()
	if len(jobs) != 26 || len(runs) != 23 {
		t.Fatalf("default options: %d jobs, %d distinct replays; want 26, 23", len(jobs), len(runs))
	}
	byLabel := map[string]*replayJob{}
	for i := range jobs {
		byLabel[jobs[i].label] = &jobs[i]
	}
	all := byLabel["All"]
	if all == nil {
		t.Fatal("no All row")
	}
	for _, label := range []string{"block=4", "capacity=4096", "ways=4"} {
		if j := byLabel[label]; j == nil || j.run != all.run {
			t.Errorf("%s does not share the All row's replay", label)
		}
	}
	if got, want := strings.Join(all.run.labels, ", "), "All, block=4, capacity=4096, ways=4"; got != want {
		t.Errorf("the All replay serves %s, want %s", got, want)
	}

	o := DefaultOptions()
	o.SkipSweeps = true
	jobs, runs = o.replayTable()
	if len(jobs) != 5 || len(runs) != 5 {
		t.Errorf("SkipSweeps: %d jobs, %d distinct replays; want 5, 5", len(jobs), len(runs))
	}
}

// TestCollectCountsReusedReplays runs a sweep that repeats the base
// configuration at one and eight jobs and checks the replay counters:
// jobs and refs count every table row as if it had replayed the trace,
// and reused counts the rows another row's replay served.
func TestCollectCountsReusedReplays(t *testing.T) {
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()

	o := Options{
		Quick:           true,
		PEs:             2,
		PESweep:         []int{1, 2},
		BlockSizes:      []int{2, 4},
		Capacities:      []int{512, 4 << 10},
		Associativities: []int{1, 4},
		Benchmarks:      []string{"Puzzle"},
	}
	b, _ := programs.ByName("Puzzle")
	_, tr, err := RunLive(b, o.ScaleFor(b), o.PEs, BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}
	jobs, runs := o.replayTable()
	if len(runs) == len(jobs) {
		t.Fatal("the table repeats no configuration")
	}
	for _, n := range []int{1, 8} {
		o.Jobs = n
		o.Metrics = obs.NewRegistry()
		if _, err := Collect(o); err != nil {
			t.Fatalf("jobs=%d: %v", n, err)
		}
		for name, want := range map[string]int{
			"bench.replay.jobs":   len(jobs),
			"bench.replay.refs":   len(jobs) * tr.Len(),
			"bench.replay.reused": len(jobs) - len(runs),
		} {
			if got := o.Metrics.Counter(name).Value(); got != uint64(want) {
				t.Errorf("jobs=%d: %s = %d, want %d", n, name, got, want)
			}
		}
	}
}
