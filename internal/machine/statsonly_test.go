package machine

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// statsOnlyConfig is the default machine with the data plane removed.
func statsOnlyConfig(pes int, layout mem.Layout) Config {
	cfg := DefaultConfig()
	cfg.PEs = pes
	cfg.Layout = layout
	cfg.Cache.StatsOnly = true
	return cfg
}

// nopProc satisfies Processor for the Run guard test.
type nopProc struct{}

func (nopProc) Step() Status { return StatusHalted }

// TestStatsOnlyRunRefused pins the guard: Run on a stats-only machine
// must panic with a message naming the cause, since live execution would
// silently read zeros.
func TestStatsOnlyRunRefused(t *testing.T) {
	m := New(statsOnlyConfig(1, mem.DefaultLayout()))
	m.Attach(0, nopProc{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run on a stats-only machine did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "stats-only") {
			t.Errorf("panic does not name the cause: %v", r)
		}
	}()
	m.Run(0)
}

// TestStatsOnlyMismatchRefused pins the construction-time consistency
// check: a stats-only cache on a data-carrying bus (or vice versa) would
// copy nil snoop data as a zero block, so cache.New must refuse.
func TestStatsOnlyMismatchRefused(t *testing.T) {
	dataCfg := DefaultConfig()
	dataCfg.PEs = 1
	dm := New(dataCfg)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched StatsOnly between cache and bus did not panic")
		}
	}()
	soCache := dataCfg.Cache
	soCache.StatsOnly = true
	cache.New(soCache, 1, dm.Bus())
}

// TestStatsOnlyCheckpointRoundTrip replays a prefix on a stats-only
// machine, checkpoints it through the full gob encoding, restores into a
// fresh stats-only machine, finishes the trace, and requires the exact
// statistics of (a) an uninterrupted stats-only replay and (b) the
// data-carrying replay.
func TestStatsOnlyCheckpointRoundTrip(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 4
	sc.Events = 20_000
	tr := synth.ORParallel(sc)

	replayAll := func(cfg Config) (busCycles, refs uint64) {
		m := New(cfg)
		ports := make([]mem.Accessor, cfg.PEs)
		for i := range ports {
			ports[i] = m.Port(i)
		}
		if err := trace.Replay(tr, ports); err != nil {
			t.Fatal(err)
		}
		cs := m.CacheStats()
		return m.BusStats().TotalCycles, cs.TotalRefs()
	}

	soCfg := statsOnlyConfig(tr.PEs, tr.Layout)
	wantCycles, wantRefs := replayAll(soCfg)
	dataCfg := soCfg
	dataCfg.Cache.StatsOnly = false
	dataCycles, dataRefs := replayAll(dataCfg)
	if wantCycles != dataCycles || wantRefs != dataRefs {
		t.Fatalf("stats-only replay (%d cycles, %d refs) diverges from data-carrying (%d, %d)",
			wantCycles, wantRefs, dataCycles, dataRefs)
	}

	// Interrupted run: replay half, checkpoint through the wire format,
	// restore, finish.
	m1 := New(soCfg)
	ports := make([]mem.Accessor, soCfg.PEs)
	for i := range ports {
		ports[i] = m1.Port(i)
	}
	half := tr.Len() / 2
	if err := trace.ReplayRange(tr, ports, 0, half); err != nil {
		t.Fatal(err)
	}
	snap := m1.Checkpoint()
	snap.RefsReplayed = half
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encoding stats-only checkpoint: %v", err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decoding stats-only checkpoint: %v", err)
	}

	m2 := New(soCfg)
	if err := m2.Restore(decoded); err != nil {
		t.Fatalf("restoring stats-only checkpoint: %v", err)
	}
	ports2 := make([]mem.Accessor, soCfg.PEs)
	for i := range ports2 {
		ports2[i] = m2.Port(i)
	}
	if err := trace.ReplayRange(tr, ports2, decoded.RefsReplayed, tr.Len()); err != nil {
		t.Fatal(err)
	}
	if got := m2.BusStats().TotalCycles; got != wantCycles {
		t.Errorf("resumed replay: %d bus cycles, uninterrupted: %d", got, wantCycles)
	}
	cs2 := m2.CacheStats()
	if got := cs2.TotalRefs(); got != wantRefs {
		t.Errorf("resumed replay: %d refs, uninterrupted: %d", got, wantRefs)
	}
}

// TestSnapshotRestoreRefusesDataMachine: a checkpoint holds no data
// image, so Restore refuses a data-carrying machine, whether the
// checkpoint came from a stats-only machine or from a data-carrying
// machine of the very same configuration.
func TestSnapshotRestoreRefusesDataMachine(t *testing.T) {
	dataCfg := DefaultConfig()
	dataCfg.PEs = 2
	soCfg := dataCfg
	soCfg.Cache.StatsOnly = true
	for name, from := range map[string]Config{"stats-only": soCfg, "data-carrying": dataCfg} {
		snap := New(from).Checkpoint()
		if err := New(dataCfg).Restore(snap); !errors.Is(err, errDataCarrying) {
			t.Errorf("%s checkpoint into a data-carrying machine: %v, want %v", name, err, errDataCarrying)
		}
	}
}

// TestSnapshotVerifyRefusesDataConfig: Verify refuses a checkpoint whose
// configuration is data-carrying before it builds a machine: with a
// forged multi-GiB cache geometry it allocates under 1 MiB.
func TestSnapshotVerifyRefusesDataConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PEs = 2
	cfg.Cache.StatsOnly = true
	snap := New(cfg).Checkpoint()
	snap.Config.Cache.StatsOnly = false
	snap.Config.Cache.SizeWords <<= 30 // 2^42 words
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := snap.Verify()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errDataCarrying) {
		t.Errorf("Verify of a data-carrying checkpoint: %v, want %v", err, errDataCarrying)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("Verify allocated %d bytes refusing the checkpoint, want under 1 MiB", got)
	}
}
