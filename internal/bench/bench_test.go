package bench

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
)

// collectPuzzle gathers a one-benchmark dataset once (small but complete:
// sweeps included, reduced ranges).
var puzzleData *Data

func dataset(t *testing.T) *Data {
	t.Helper()
	if puzzleData != nil {
		return puzzleData
	}
	o := Options{
		Quick:      true,
		PEs:        4,
		PESweep:    []int{1, 2, 4},
		BlockSizes: []int{2, 4, 8},
		Capacities: []int{512, 2 << 10, 8 << 10},
		Benchmarks: []string{"Puzzle"},
	}
	d, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	puzzleData = d
	return d
}

func TestCollectStructure(t *testing.T) {
	d := dataset(t)
	if len(d.Benches) != 1 || d.Benches[0].Name != "Puzzle" {
		t.Fatalf("benches %+v", d.Benches)
	}
	bd := d.Benches[0]
	for _, pes := range []int{1, 2, 4} {
		if bd.LiveByPEs[pes] == nil {
			t.Errorf("missing live run for %d PEs", pes)
		}
	}
	for _, v := range cache.OptionSets {
		if _, ok := bd.OptBus[v.Name]; !ok {
			t.Errorf("missing replay %s", v.Name)
		}
	}
	if len(bd.BlockSweep) != 3 || len(bd.CapSweep) != 3 {
		t.Errorf("sweep lengths %d/%d", len(bd.BlockSweep), len(bd.CapSweep))
	}
	if bd.Width2.TotalCycles == 0 || bd.ProtoBus[cache.ProtocolIllinois].TotalCycles == 0 {
		t.Error("extras missing")
	}
}

func TestTable4Invariants(t *testing.T) {
	d := dataset(t)
	bd := d.Benches[0]
	none := bd.OptBus["None"].TotalCycles
	all := bd.OptBus["All"].TotalCycles
	if all >= none {
		t.Errorf("All (%d) did not beat None (%d)", all, none)
	}
	// Each single-site optimization can only help.
	for _, v := range cache.OptionSets[1:4] {
		if bd.OptBus[v.Name].TotalCycles > none {
			t.Errorf("%s increased traffic: %d > %d", v.Name, bd.OptBus[v.Name].TotalCycles, none)
		}
	}
	tab := Table4(d)
	if tab.Rows[0].Cells[0] != "1.00" {
		t.Errorf("None column = %s, want 1.00", tab.Rows[0].Cells[0])
	}
}

func TestTablesRender(t *testing.T) {
	d := dataset(t)
	for name, s := range map[string]string{
		"t1": Table1(d).String(),
		"t2": Table2(d).String(),
		"t3": Table3(d).String(),
		"t4": Table4(d).String(),
		"t5": Table5(d).String(),
	} {
		if !strings.Contains(s, "Puzzle") {
			t.Errorf("%s missing benchmark row:\n%s", name, s)
		}
	}
	if !strings.Contains(Table1(d).String(), "su") {
		t.Error("table 1 missing speedup column")
	}
}

func TestFiguresRender(t *testing.T) {
	d := dataset(t)
	m1, t1 := Figure1(d)
	if len(m1.Points) != 3 || len(t1.Points) != 3 {
		t.Errorf("figure 1 points %d/%d", len(m1.Points), len(t1.Points))
	}
	m2, t2 := Figure2(d)
	if len(m2.Points) != 3 || len(t2.Points) != 3 {
		t.Errorf("figure 2 points %d/%d", len(m2.Points), len(t2.Points))
	}
	// Capacity sweep: bigger caches never increase traffic.
	prev := uint64(1 << 62)
	for _, p := range d.Benches[0].CapSweep {
		if p.BusCycles > prev {
			t.Errorf("capacity %d increased traffic: %d > %d", p.Param, p.BusCycles, prev)
		}
		prev = p.BusCycles
	}
	tr, sh := Figure3(d)
	if len(tr.Points) != 3 || len(sh.Rows) != 3 {
		t.Errorf("figure 3 %d/%d", len(tr.Points), len(sh.Rows))
	}
	for _, s := range []string{ExtraBusWidth(d).String(), ExtraOptDetail(d).String(), ExtraIllinois(d).String()} {
		if !strings.Contains(s, "Puzzle") {
			t.Error("extra table missing benchmark")
		}
	}
}

func TestWidth2WithinPaperBandDirection(t *testing.T) {
	d := dataset(t)
	bd := d.Benches[0]
	ratio := float64(bd.Width2.TotalCycles) / float64(bd.OptBus["All"].TotalCycles)
	if ratio >= 1 || ratio < 0.4 {
		t.Errorf("two-word bus ratio %.2f implausible", ratio)
	}
}

func TestIllinoisMemBusyHigher(t *testing.T) {
	d := dataset(t)
	bd := d.Benches[0]
	ill := bd.ProtoBus[cache.ProtocolIllinois]
	if ill.MemBusyCycles <= bd.OptBus["None"].MemBusyCycles {
		t.Errorf("Illinois mem busy %d not above PIM %d",
			ill.MemBusyCycles, bd.OptBus["None"].MemBusyCycles)
	}
}

func TestScaleFor(t *testing.T) {
	b, _ := programs.ByName("Tri")
	if (Options{Quick: false}).ScaleFor(b) != b.DefaultScale {
		t.Error("full scale wrong")
	}
	if (Options{Quick: true}).ScaleFor(b) != quickScales["Tri"] {
		t.Error("quick scale wrong")
	}
}

func TestRunLiveDetectsWrongAnswer(t *testing.T) {
	b, _ := programs.ByName("Puzzle")
	bad := b
	bad.Expected = func(int) string { return "not-the-answer\n" }
	if _, _, err := RunLive(bad, bad.SmallScale, 1, BaseCache(cache.OptionsAll()), false); err == nil {
		t.Error("wrong answer not detected")
	}
}

func TestReplayConfigMatchesLive(t *testing.T) {
	b, _ := programs.ByName("Pascal")
	live, tr, err := RunLive(b, 3, 2, BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}
	bs, _, err := ReplayConfig(tr, BaseCache(cache.OptionsAll()), bus.DefaultTiming(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if bs.TotalCycles != live.Bus.TotalCycles {
		t.Errorf("replay %d != live %d", bs.TotalCycles, live.Bus.TotalCycles)
	}
}

// TestCollectRejectsMissingPEs pins that a PE sweep without the record
// job's PE count is refused before any job runs, at either job count.
func TestCollectRejectsMissingPEs(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var progress strings.Builder
		o := Options{PEs: 8, PESweep: []int{1, 2}, SkipSweeps: true, Quick: true,
			Benchmarks: []string{"Pascal"}, Jobs: jobs, Progress: &progress}
		_, err := Collect(o)
		if err == nil || !strings.Contains(err.Error(), "does not include PEs=8") {
			t.Errorf("jobs=%d: Collect = %v, want a missing-PEs error", jobs, err)
		}
		if progress.Len() > 0 {
			t.Errorf("jobs=%d: jobs ran before the refusal:\n%s", jobs, progress.String())
		}
	}
}

// TestCollectRejectsUnknownBenchmark pins that a selection naming no
// benchmark fails with the name in the error, at either job count, while
// names match case-insensitively like programs.ByName.
func TestCollectRejectsUnknownBenchmark(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		o := Options{Quick: true, SkipSweeps: true, Jobs: jobs, Benchmarks: []string{"Pascal", "Nope"}}
		if _, err := Collect(o); err == nil || !strings.Contains(err.Error(), `unknown benchmark "Nope"`) {
			t.Errorf("jobs=%d: Collect(%v) = %v, want an unknown-benchmark error", jobs, o.Benchmarks, err)
		}
	}
	o := Options{PEs: 2, PESweep: []int{2}, SkipSweeps: true, Quick: true, Benchmarks: []string{"pascal"}}
	d, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benches) != 1 || d.Benches[0].Name != "Pascal" {
		t.Errorf("Benchmarks [pascal] collected %d benchmarks, want Pascal", len(d.Benches))
	}
}

// TestCollectParallelDeterminism is the evaluation engine's regression
// oracle: a Collect with Jobs=8 must render every table and figure
// byte-identically to the one-worker Jobs=1 run. The workload is small
// (Puzzle at its smallest scale) but exercises the full job graph — live
// PE sweep, all five optimization replays, block/capacity/way sweeps, and
// the two-word-bus, Illinois and write-through extras.
func TestCollectParallelDeterminism(t *testing.T) {
	// Run Puzzle at its tiny scale: the test cares about assembly order,
	// not statistics.
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()

	o := Options{
		Quick:           true,
		PEs:             2,
		PESweep:         []int{1, 2},
		BlockSizes:      []int{2, 4},
		Capacities:      []int{512, 2 << 10},
		Associativities: []int{1, 4},
		Benchmarks:      []string{"Puzzle"},
	}
	o.Jobs = 1
	serial, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Jobs = 8
	parallel, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	got, want := RenderAll(parallel), RenderAll(serial)
	if got != want {
		t.Errorf("parallel run is not byte-identical to serial run\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if len(want) == 0 {
		t.Error("rendered evaluation is empty")
	}
}

// TestCollectOneWorkerOrder pins the schedule that holds one trace at a
// time: with one worker, a benchmark's live runs come first, then its
// replays, and only then the next benchmark's work.
func TestCollectOneWorkerOrder(t *testing.T) {
	oldPuzzle, oldPascal := quickScales["Puzzle"], quickScales["Pascal"]
	quickScales["Puzzle"], quickScales["Pascal"] = 2, 3
	defer func() { quickScales["Puzzle"], quickScales["Pascal"] = oldPuzzle, oldPascal }()
	var progress strings.Builder
	o := Options{Quick: true, PEs: 2, PESweep: []int{1, 2}, SkipSweeps: true,
		Benchmarks: []string{"Puzzle", "Pascal"}, Jobs: 1, Progress: &progress}
	d, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	// Fold the progress lines into runs of equal (benchmark, kind).
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(progress.String(), "\n"), "\n") {
		name, msg, _ := strings.Cut(line, ": ")
		step := name + " live"
		if strings.HasPrefix(msg, "replay ") {
			step = name + " replay"
		}
		if len(got) == 0 || got[len(got)-1] != step {
			got = append(got, step)
		}
	}
	first, second := d.Benches[0].Name, d.Benches[1].Name
	want := []string{first + " live", first + " replay", second + " live", second + " replay"}
	if !slices.Equal(got, want) {
		t.Errorf("progress order %v, want %v\n%s", got, want, progress.String())
	}
}

// cancelAtReplay is a progress writer that cancels the run at its first
// replay line. progressLog serializes the calls.
type cancelAtReplay struct {
	cancel context.CancelFunc
	lines  []string
	at     int // index of the first replay line, -1 before it
}

func (w *cancelAtReplay) Write(p []byte) (int, error) {
	if w.at < 0 && strings.Contains(string(p), ": replay ") {
		w.at = len(w.lines)
		w.cancel()
	}
	w.lines = append(w.lines, string(p))
	return len(p), nil
}

// TestCollectCancelMidGraph stops a Collect in the middle of its job
// graph, with replays still queued: it must return the context's error,
// run no job after the cancellation at one worker, and leave no
// goroutine behind.
func TestCollectCancelMidGraph(t *testing.T) {
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()
	for _, jobs := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelAtReplay{cancel: cancel, at: -1}
		o := Options{Quick: true, PEs: 2, PESweep: []int{1, 2}, SkipSweeps: true,
			Benchmarks: []string{"Puzzle"}, Jobs: jobs, Progress: w, Context: ctx}
		_, err := Collect(o)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("jobs=%d: Collect = %v, want context.Canceled", jobs, err)
		}
		if w.at < 0 {
			t.Fatalf("jobs=%d: no replay started", jobs)
		}
		if jobs == 1 && len(w.lines) > w.at+1 {
			t.Errorf("jobs=1: progress after the cancellation:\n%s", strings.Join(w.lines[w.at+1:], ""))
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("jobs=%d: %d goroutines after Collect returned, %d before", jobs, got, before)
		}
	}
}
