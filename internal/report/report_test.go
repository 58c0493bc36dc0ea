package report

import (
	"path/filepath"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/obs"
)

// mkManifest builds a manifest for scenario with the given engine mode
// and throughput; tweak mutates it after the deterministic core is set.
func mkManifest(scenario, mode string, mrefs float64, tweak func(*obs.Manifest)) *obs.Manifest {
	m := obs.NewManifest("pimtrace")
	m.Scenario = scenario
	ccfg := cache.Config{
		SizeWords: 4096, BlockWords: 4, Ways: 4, LockEntries: 4,
		Protocol: cache.ProtocolPIM,
	}
	m.Config = obs.NewRunConfig(8, ccfg, bus.DefaultTiming(), "all", mode)
	m.Trace = &obs.TraceInfo{SHA256: "feed", Refs: 1000, PEs: 8, LayoutWords: 65536}
	cs := cache.Stats{}
	cs.Hits[0] = 700
	cs.Misses[0] = 300
	m.Stats = obs.NewRunStats(1000, cs, bus.Stats{})
	m.Timing.MrefsPerSec = mrefs
	if tweak != nil {
		tweak(m)
	}
	return m
}

func TestDiffIdentical(t *testing.T) {
	a := mkManifest("s", "stream", 20, nil)
	b := mkManifest("s", "stream", 22, nil)
	d, err := DiffManifests(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SameKey || !d.SameStatsKey || !d.OK() {
		t.Fatalf("identical runs should be clean: %+v", d)
	}
	out := d.Format("a.json", "b.json")
	for _, want := range []string{
		"scenario: identical",
		"stats: identical",
		"20.00 -> 22.00 Mrefs/s (+10.0%)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffDeterminismViolation(t *testing.T) {
	a := mkManifest("s", "stream", 20, nil)
	b := mkManifest("s", "stream", 20, func(m *obs.Manifest) {
		m.Stats.Cache.Hits[0] = 701 // corrupt one deterministic stat
	})
	d, err := DiffManifests(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatal("stat mismatch must fail the diff")
	}
	out := d.Format("a.json", "b.json")
	if !strings.Contains(out, "DETERMINISM VIOLATION") {
		t.Errorf("diff output missing violation banner:\n%s", out)
	}
	// The mismatch must name the field path and both values.
	found := false
	for _, m := range d.Mismatches {
		if strings.Contains(m.Path, "Hits") && m.A == "700" && m.B == "701" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a stats.*Hits 700 != 701 mismatch, got %+v", d.Mismatches)
	}
}

// TestDiffCrossMode: packed/stats-only runs share a StatsKey with the
// stream run, so their stats are compared (and must match); their Keys
// differ, so throughput is not gated between them.
func TestDiffCrossMode(t *testing.T) {
	a := mkManifest("s", "stream", 20, nil)
	b := mkManifest("s2", "packed", 30, func(m *obs.Manifest) {
		m.Config.StatsOnly = true
	})
	d, err := DiffManifests(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.SameKey {
		t.Fatal("different mode must split the Key")
	}
	if !d.SameStatsKey {
		t.Fatal("different mode must not split the StatsKey")
	}
	if !d.OK() {
		t.Fatalf("cross-mode stats should match: %+v", d.Mismatches)
	}
}

func TestMedianManifest(t *testing.T) {
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 30, nil),
		mkManifest("s", "stream", 10, nil),
		mkManifest("s", "stream", 20, nil),
	}
	med, err := MedianManifest(runs)
	if err != nil {
		t.Fatal(err)
	}
	if med.Timing.MrefsPerSec != 20 {
		t.Fatalf("median = %v, want 20", med.Timing.MrefsPerSec)
	}
	if med.Timing.MedianOf != 3 {
		t.Fatalf("MedianOf = %d, want 3", med.Timing.MedianOf)
	}

	// Even count: mean of the middle two.
	runs = append(runs, mkManifest("s", "stream", 40, nil))
	med, err = MedianManifest(runs)
	if err != nil {
		t.Fatal(err)
	}
	if med.Timing.MrefsPerSec != 25 {
		t.Fatalf("even median = %v, want 25", med.Timing.MrefsPerSec)
	}
}

func TestMedianRejectsMixedScenarios(t *testing.T) {
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 30, nil),
		mkManifest("s", "packed", 10, nil),
	}
	if _, err := MedianManifest(runs); err == nil {
		t.Fatal("mixed-mode runs must not merge")
	}
}

func TestMedianRejectsNondeterministicRepeats(t *testing.T) {
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 30, nil),
		mkManifest("s", "stream", 30, func(m *obs.Manifest) {
			m.Stats.Cache.Hits[0] = 999
		}),
	}
	_, err := MedianManifest(runs)
	if err == nil || !strings.Contains(err.Error(), "DETERMINISM VIOLATION") {
		t.Fatalf("repeat-run stat drift must be a violation, got %v", err)
	}
}

func TestCheckPass(t *testing.T) {
	base := []*obs.Manifest{mkManifest("s", "stream", 20, nil)}
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 19, nil),
		mkManifest("s", "stream", 17, nil),
		mkManifest("s", "stream", 18, nil),
	}
	res, err := Check(base, runs, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("median 18 vs floor 16 should pass:\n%s", res.Format())
	}
	out := res.Format()
	for _, want := range []string{"s", "18.00", "20.00", "16.00", "PASS",
		"all scenarios within tolerance"} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q:\n%s", want, out)
		}
	}
}

func TestCheckThroughputFail(t *testing.T) {
	base := []*obs.Manifest{mkManifest("s", "stream", 20, nil)}
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 10, nil),
		mkManifest("s", "stream", 11, nil),
		mkManifest("s", "stream", 12, nil),
	}
	res, err := Check(base, runs, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("median 11 vs floor 16 must fail")
	}
	out := res.Format()
	if !strings.Contains(out, "FAIL s: median 11.00 Mrefs/s below floor 16.00") {
		t.Errorf("check output missing throughput failure line:\n%s", out)
	}
}

func TestCheckStatsViolationIsHardError(t *testing.T) {
	base := []*obs.Manifest{mkManifest("s", "stream", 20, nil)}
	// Throughput excellent, but stats drifted from the baseline.
	runs := []*obs.Manifest{
		mkManifest("s", "stream", 100, func(m *obs.Manifest) {
			m.Stats.Cache.Hits[0] = 999
		}),
	}
	res, err := Check(base, runs, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("stat drift must fail regardless of throughput")
	}
	if !strings.Contains(res.Format(), "DETERMINISM VIOLATION") {
		t.Errorf("check output missing violation:\n%s", res.Format())
	}
}

func TestCheckUnmatchedScenarios(t *testing.T) {
	base := []*obs.Manifest{
		mkManifest("covered", "stream", 20, nil),
		mkManifest("skipped", "packed", 20, nil),
	}
	runs := []*obs.Manifest{mkManifest("covered", "stream", 20, nil)}
	res, err := Check(base, runs, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("an unexercised baseline must fail the gate")
	}
	if !strings.Contains(res.Format(), "baseline skipped: no run matched") {
		t.Errorf("missing unused-baseline failure:\n%s", res.Format())
	}

	// And a run with no baseline fails too.
	runs = append(runs, mkManifest("novel", "stream", 20, func(m *obs.Manifest) {
		m.Config.PEs = 16
	}))
	res, err = Check(base, runs, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("a run without a baseline must fail the gate")
	}
	if !strings.Contains(res.Format(), "no baseline for this scenario") {
		t.Errorf("missing no-baseline failure:\n%s", res.Format())
	}
}

func TestLoadDirAndTable(t *testing.T) {
	dir := t.TempDir()
	m := mkManifest("s", "stream", 20, nil)
	m.Timing.MedianOf = 5
	if err := m.WriteFile(filepath.Join(dir, "s.json")); err != nil {
		t.Fatal(err)
	}
	ms, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("loaded %d manifests, want 1", len(ms))
	}
	out := Table(ms)
	for _, want := range []string{"Replay throughput", "s", "stream", "20.00", "1000", "5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty baseline dir must error")
	}
}
