package synth

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/trace"
)

func replay(t *testing.T, tr *trace.Trace, cfg Config, ccfg cache.Config) (bus.Stats, cache.Stats) {
	t.Helper()
	m := machine.New(machine.Config{
		PEs: tr.PEs, Layout: cfg.Layout, Cache: ccfg, Timing: bus.DefaultTiming(),
	})
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return m.BusStats(), m.CacheStats()
}

func testCache(opts cache.Options) cache.Config {
	return cache.Config{
		SizeWords: 4 << 10, BlockWords: 4, Ways: 4, LockEntries: 4, Options: opts,
	}
}

func smallConfig(pes int) Config {
	c := DefaultConfig()
	c.PEs = pes
	c.Events = 30_000
	return c
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	c := smallConfig(4)
	for name, gen := range map[string]func(Config) *trace.Trace{
		"seqprolog": SeqProlog, "orparallel": ORParallel, "ring": MessageRing,
	} {
		a, b := gen(c), gen(c)
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", name, a.Len(), b.Len())
		}
		for i := range a.Refs {
			if a.Refs[i] != b.Refs[i] {
				t.Fatalf("%s: ref %d differs", name, i)
			}
		}
		if a.Len() < c.Events {
			t.Errorf("%s: generated only %d of %d events", name, a.Len(), c.Events)
		}
	}
}

func TestGeneratedStreamsReplayCleanly(t *testing.T) {
	c := smallConfig(4)
	for name, tr := range map[string]*trace.Trace{
		"seqprolog":  SeqProlog(c),
		"orparallel": ORParallel(c),
		"ring":       MessageRing(c),
	} {
		bs, cs := replay(t, tr, c, testCache(cache.OptionsAll()))
		if bs.TotalCycles == 0 {
			t.Errorf("%s: no bus traffic at all", name)
		}
		if cs.TotalRefs() == 0 {
			t.Errorf("%s: no references", name)
		}
	}
}

// TestSeqPrologBenefitsFromDW checks the paper's claim (via Tick [19])
// that sequential Prolog's high write bandwidth benefits from
// direct-write allocation.
func TestSeqPrologBenefitsFromDW(t *testing.T) {
	c := smallConfig(1)
	c.Events = 60_000
	tr := SeqProlog(c)
	none, _ := replay(t, tr, c, testCache(cache.OptionsNone()))
	var heapOpts cache.Options
	heapOpts.PerArea[mem.AreaHeap] = cache.OptDW
	opt, optCS := replay(t, tr, c, testCache(heapOpts))
	if opt.TotalCycles >= none.TotalCycles {
		t.Errorf("DW did not help sequential Prolog: %d >= %d",
			opt.TotalCycles, none.TotalCycles)
	}
	if optCS.DWApplied == 0 {
		t.Error("no direct writes applied")
	}
	t.Logf("seqprolog: none=%d heap-DW=%d (%.2fx)",
		none.TotalCycles, opt.TotalCycles,
		float64(opt.TotalCycles)/float64(none.TotalCycles))
}

// TestORParallelSharing checks the Aurora-like stream exercises
// cache-to-cache sharing and locking.
func TestORParallelSharing(t *testing.T) {
	c := smallConfig(8)
	tr := ORParallel(c)
	bs, cs := replay(t, tr, c, testCache(cache.OptionsAll()))
	if bs.CountByPattern[bus.PatC2C]+bs.CountByPattern[bus.PatC2CSwapOut] == 0 {
		t.Error("no cache-to-cache transfers in an 8-worker OR-parallel stream")
	}
	if cs.LRTotal() == 0 {
		t.Error("no lock operations")
	}
	// The shared task queue should make some unlocks... conflicts are
	// impossible in a serialized replay, so all unlocks are no-waiter.
	if cs.UnlockNoWaiter == 0 {
		t.Error("no unlocks recorded")
	}
}

// TestMessageRingRIAvoidsInvalidations reproduces the RI rationale on
// the pure messaging workload.
func TestMessageRingRIAvoidsInvalidations(t *testing.T) {
	c := smallConfig(4)
	tr := MessageRing(c)
	var commRI cache.Options
	commRI.PerArea[mem.AreaComm] = cache.OptRI
	none, _ := replay(t, tr, c, testCache(cache.OptionsNone()))
	ri, riCS := replay(t, tr, c, testCache(commRI))
	if ri.Commands[bus.CmdI] >= none.Commands[bus.CmdI] {
		t.Errorf("RI did not avoid invalidations: %d >= %d",
			ri.Commands[bus.CmdI], none.Commands[bus.CmdI])
	}
	if riCS.RIApplied == 0 {
		t.Error("RI never applied")
	}
	t.Logf("ring: I commands none=%d ri=%d", none.Commands[bus.CmdI], ri.Commands[bus.CmdI])
}

func TestSerializationOfSyntheticTrace(t *testing.T) {
	c := smallConfig(2)
	c.Events = 5000
	tr := MessageRing(c)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round trip lost refs: %d vs %d", got.Len(), tr.Len())
	}
}

// TestSeqPrologStaysInLayout pins the environment-stack bound: however
// long the stream, every address lies inside the layout, so the trace
// decodes and replays. (The stack used to run past the end of the
// layout after about 2.5M events.)
func TestSeqPrologStaysInLayout(t *testing.T) {
	c := smallConfig(1)
	c.Layout.SuspWords, c.Layout.CommWords = 64, 64
	c.Layout.GoalWords = 1 << 10 // a short stack overflows within the run
	c.Events = 50_000
	tr := SeqProlog(c)
	end := c.Layout.Bounds().End
	for i, r := range tr.Refs {
		if r.Addr() >= end {
			t.Fatalf("ref %d: address %#x at or past the layout end %#x", i, r.Addr(), end)
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Read(&buf); err != nil {
		t.Fatalf("decoding the stream: %v", err)
	}
	replay(t, tr, c, testCache(cache.OptionsAll()))
}

// TestSeqPrologStreamsUnchanged pins streams that always fit their
// layout byte for byte: the stack bound only acts on a push that would
// leave the layout. The 2M-event stream reaches into the suspension
// area, past the goal area the stack starts in.
func TestSeqPrologStreamsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		events int
		sha256 string
	}{
		{200_000, "5357a09f858e285d8a97a18e2704e2b23385c370bdb2c51c4c4bea862cdc966c"},
		{2_000_000, "05323a4ff0801455cf4966e379af5bd26c5512f7dbb5329948bc716d2b434ae3"},
	} {
		c := DefaultConfig()
		c.Events = tc.events
		var buf bytes.Buffer
		if err := SeqProlog(c).Write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.sha256 {
			t.Errorf("%d events: stream digest %s, want %s", tc.events, got, tc.sha256)
		}
	}
}

// benchmarkSynth measures one generator producing a 2M-reference
// stream, so the producers' per-reference cost (area classification and
// packing every trace.Ref) stays visible beside the trace package's
// BenchmarkTraceEncode and BenchmarkTraceDecode.
func benchmarkSynth(b *testing.B, gen func(Config) *trace.Trace) {
	c := DefaultConfig()
	c.Events = 2_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := gen(c); tr.Len() < c.Events {
			b.Fatalf("generated %d refs, want at least %d", tr.Len(), c.Events)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.Events), "ns/ref")
}

func BenchmarkSynthRing(b *testing.B)       { benchmarkSynth(b, MessageRing) }
func BenchmarkSynthORParallel(b *testing.B) { benchmarkSynth(b, ORParallel) }
