package bench

import (
	"strings"
	"testing"

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

func TestCollectRejectsMissingPEs(t *testing.T) {
	o := Options{PEs: 8, PESweep: []int{1, 2}, SkipSweeps: true,
		Quick: true, Benchmarks: []string{"Pascal"}}
	if _, err := Collect(o); err == nil {
		t.Error("PESweep without PEs accepted")
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

// TestCollectParallelDeterminism is the parallel evaluation engine's
// regression oracle: a Collect with Jobs=8 must render every table and
// figure byte-identically to the serial Jobs=1 run. The workload is small
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

// TestCollectParallelPropagatesError: a failing job must surface its error
// from Collect rather than hang or panic the pool.
func TestCollectParallelPropagatesError(t *testing.T) {
	o := Options{
		Quick: true, PEs: 8, PESweep: []int{1, 2}, SkipSweeps: true,
		Benchmarks: []string{"Pascal"}, Jobs: 4,
	}
	if _, err := Collect(o); err == nil {
		t.Error("PESweep without PEs accepted by parallel path")
	}
}
