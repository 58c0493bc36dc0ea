package pimcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// manifestTrace builds one small synthetic trace and its serialized
// bytes + digest, shared by the manifest determinism tests.
func manifestTrace(t testing.TB) (*trace.Trace, []byte, string) {
	t.Helper()
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 20_000
	sc.Seed = 7
	tr := synth.ORParallel(sc)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return tr, buf.Bytes(), obs.HexDigest(sum[:])
}

// replayToManifest decodes the serialized trace, replays it under ccfg
// and assembles a manifest exactly the way pimtrace replay does.
func replayToManifest(t *testing.T, data []byte, digest string, ccfg cache.Config, mode string) *obs.Manifest {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	timing := bus.DefaultTiming()
	m := machine.New(machine.Config{PEs: tr.PEs, Layout: tr.Layout, Cache: ccfg, Timing: timing})
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatal(err)
	}
	refs := uint64(tr.Len())

	man := obs.NewManifest("pimtrace")
	man.Scenario = "matrix"
	man.Config = obs.NewRunConfig(tr.PEs, ccfg, timing, "all", mode)
	man.Trace = &obs.TraceInfo{
		SHA256: digest, Refs: refs, PEs: tr.PEs,
		LayoutWords: uint64(tr.Layout.TotalWords()),
	}
	man.Stats = obs.NewRunStats(refs, m.CacheStats(), m.BusStats())
	man.Timing.TraceFile = "matrix.trc"
	man.FinishTiming(obs.NewPhases(), obs.NewRegistry(), refs, 0.1)
	return man
}

// TestManifestDeterminismMatrix is the manifest determinism oracle: two
// replays of the same trace and configuration produce byte-identical
// manifests once the timing block is stripped — across every protocol,
// with bus filters on or off, with and without a data plane.
func TestManifestDeterminismMatrix(t *testing.T) {
	_, data, digest := manifestTrace(t)
	protocols := []struct {
		proto cache.Protocol
		opts  cache.Options
	}{
		{cache.ProtocolPIM, cache.OptionsAll()},
		{cache.ProtocolIllinois, cache.OptionsNone()},
		{cache.ProtocolWriteThrough, cache.OptionsNone()},
	}
	for _, pc := range protocols {
		for _, filtersOff := range []bool{false, true} {
			for _, statsOnly := range []bool{false, true} {
				name := fmt.Sprintf("%s/filtersOff=%v/statsOnly=%v", pc.proto, filtersOff, statsOnly)
				t.Run(name, func(t *testing.T) {
					ccfg := cache.DefaultConfig()
					ccfg.Options = pc.opts
					ccfg.Protocol = pc.proto
					ccfg.DisableBusFilters = filtersOff
					ccfg.StatsOnly = statsOnly

					a := replayToManifest(t, data, digest, ccfg, "stream")
					b := replayToManifest(t, data, digest, ccfg, "stream")
					aj, err := a.DeterministicJSON()
					if err != nil {
						t.Fatal(err)
					}
					bj, err := b.DeterministicJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(aj, bj) {
						t.Errorf("two replays produced different deterministic manifests:\n%s\n----\n%s", aj, bj)
					}
					if a.Key() != b.Key() || a.StatsKey() != b.StatsKey() {
						t.Error("repeat runs disagree on manifest keys")
					}
				})
			}
		}
	}
}

// TestManifestStatsKeyAcrossEngineKnobs: the engine knobs that provably
// do not change statistics (filters, stats-only) share a StatsKey with
// the plain configuration, and their Stats sections agree — so
// pimreport's determinism check binds all engine modes together.
func TestManifestStatsKeyAcrossEngineKnobs(t *testing.T) {
	_, data, digest := manifestTrace(t)
	base := cache.DefaultConfig()
	base.Options = cache.OptionsAll()

	plain := replayToManifest(t, data, digest, base, "stream")

	variants := map[string]cache.Config{}
	noFilters := base
	noFilters.DisableBusFilters = true
	variants["filtersOff"] = noFilters
	so := base
	so.StatsOnly = true
	variants["statsOnly"] = so

	pj, err := plain.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range variants {
		m := replayToManifest(t, data, digest, cfg, "stream")
		if m.StatsKey() != plain.StatsKey() {
			t.Errorf("%s: StatsKey differs from plain run", name)
		}
		if m.Key() == plain.Key() {
			t.Errorf("%s: Key should differ from plain run (different engine knobs)", name)
		}
		mj, err := m.DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		// The deterministic JSON differs only in the config knobs; the
		// stats must agree. Compare the stats sections via fresh
		// manifests with normalized configs.
		if !bytes.Equal(statsSection(t, m), statsSection(t, plain)) {
			t.Errorf("%s: stats differ from plain run\nplain: %s\n%s: %s", name, pj, name, mj)
		}
	}
}

func statsSection(t *testing.T, m *obs.Manifest) []byte {
	t.Helper()
	c := *m
	c.Config = obs.RunConfig{}
	c.Timing = obs.Timing{}
	b, err := c.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPerPEStatsAcrossReplayModes pins per-PE equivalence, stronger
// than the aggregate oracles: replaying the decoded stream and the
// in-memory trace, with and without the data plane, leaves each
// individual PE cache with identical statistics, via
// machine.PerPECacheStats.
func TestPerPEStatsAcrossReplayModes(t *testing.T) {
	tr, data, _ := manifestTrace(t)
	timing := bus.DefaultTiming()
	base := cache.DefaultConfig()
	base.Options = cache.OptionsAll()

	newMachine := func(ccfg cache.Config) (*machine.Machine, []mem.Accessor) {
		m := machine.New(machine.Config{PEs: tr.PEs, Layout: tr.Layout, Cache: ccfg, Timing: timing})
		ports := make([]mem.Accessor, tr.PEs)
		for i := range ports {
			ports[i] = m.Port(i)
		}
		return m, ports
	}

	// Reference: the decoded stream replayed with the data plane.
	mDecoded, ports := newMachine(base)
	decoded, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Replay(decoded, ports); err != nil {
		t.Fatal(err)
	}
	want := mDecoded.PerPECacheStats()
	if len(want) != tr.PEs {
		t.Fatalf("PerPECacheStats returned %d entries, want %d", len(want), tr.PEs)
	}
	var aggregate cache.Stats
	for i := range want {
		aggregate.Add(&want[i])
	}
	if aggregate != mDecoded.CacheStats() {
		t.Fatal("PerPECacheStats does not sum to CacheStats")
	}

	// In-memory replay, with and without the data plane.
	mMem, memPorts := newMachine(base)
	if err := trace.Replay(tr, memPorts); err != nil {
		t.Fatal(err)
	}
	soCfg := base
	soCfg.StatsOnly = true
	mSO, soPorts := newMachine(soCfg)
	if err := trace.Replay(tr, soPorts); err != nil {
		t.Fatal(err)
	}

	for name, m := range map[string]*machine.Machine{"in-memory": mMem, "statsonly": mSO} {
		got := m.PerPECacheStats()
		for pe := range want {
			if got[pe] != want[pe] {
				t.Errorf("%s: PE %d stats differ from the decoded replay", name, pe)
			}
		}
		if m.BusStats() != mDecoded.BusStats() {
			t.Errorf("%s: bus stats differ from the decoded replay", name)
		}
	}
}
