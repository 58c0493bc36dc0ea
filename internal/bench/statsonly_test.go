package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
	"pimcache/internal/synth"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// The stats-only oracle. Every production replay runs on a stats-only
// machine; the oracle replays the same references on a data-carrying
// machine the test builds itself, so any divergence in the data-plane
// gates shows up as a statistics or event-stream difference.

// dataMachine builds a data-carrying machine and its ports.
func dataMachine(pes int, layout mem.Layout, ccfg cache.Config, timing bus.Timing) (*machine.Machine, []mem.Accessor) {
	ccfg.StatsOnly = false
	m := machine.New(machine.Config{PEs: pes, Layout: layout, Cache: ccfg, Timing: timing})
	ports := make([]mem.Accessor, pes)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	return m, ports
}

// dataReplay is the oracle replay of a whole trace, with an optional
// probe sink.
func dataReplay(t *testing.T, tr *trace.Trace, ccfg cache.Config, timing bus.Timing, sink probe.Sink) (bus.Stats, cache.Stats) {
	t.Helper()
	m, ports := dataMachine(tr.PEs, tr.Layout, ccfg, timing)
	if sink != nil {
		m.SetProbe(sink)
	}
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatalf("data-carrying replay: %v", err)
	}
	return m.BusStats(), m.CacheStats()
}

// eventLog is a probe sink that records the full event stream for
// bit-level comparison.
type eventLog struct{ events []probe.Event }

func (l *eventLog) Emit(e probe.Event) { l.events = append(l.events, e) }

// sameEvents compares two recorded streams event for event.
func sameEvents(t *testing.T, label string, data, statsOnly []probe.Event) {
	t.Helper()
	if len(data) != len(statsOnly) {
		t.Errorf("%s: %d events data-carrying, %d stats-only", label, len(data), len(statsOnly))
		return
	}
	for i := range data {
		if data[i] != statsOnly[i] {
			t.Errorf("%s: event %d diverges\ndata:       %+v\nstats-only: %+v",
				label, i, data[i], statsOnly[i])
			return
		}
	}
}

// statsOnlyProtocols is the replay matrix the stats-only oracle runs: the
// three protocols, each with the bus filters on and off.
var statsOnlyProtocols = []struct {
	name    string
	opts    cache.Options
	proto   cache.Protocol
	disable bool
}{
	{"pim", cache.OptionsAll(), cache.ProtocolPIM, false},
	{"pim/unfiltered", cache.OptionsAll(), cache.ProtocolPIM, true},
	{"illinois", cache.OptionsNone(), cache.ProtocolIllinois, false},
	{"illinois/unfiltered", cache.OptionsNone(), cache.ProtocolIllinois, true},
	{"writethrough", cache.OptionsNone(), cache.ProtocolWriteThrough, false},
	{"writethrough/unfiltered", cache.OptionsNone(), cache.ProtocolWriteThrough, true},
}

// statsOnlyTraces returns the oracle's workloads: one live-recorded
// stream (every op the real runtime issues, including locks) and the
// three synthetic generators.
func statsOnlyTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	b, _ := programs.ByName("Puzzle")
	_, tr, err := RunLive(b, 2, 4, BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	return map[string]*trace.Trace{
		"puzzle":     tr,
		"orparallel": synth.ORParallel(sc),
		"seqprolog":  synth.SeqProlog(sc),
		"ring":       synth.MessageRing(sc),
	}
}

// TestStatsOnlyEquivalence is the tentpole oracle: replaying any stream
// through ReplayConfigProbed (stats-only, cache.Apply) must yield
// bit-identical bus statistics, cache statistics, and probe event
// streams to the data-carrying oracle, for every protocol with the
// filters on and off.
func TestStatsOnlyEquivalence(t *testing.T) {
	for trName, tr := range statsOnlyTraces(t) {
		tr := tr
		t.Run(trName, func(t *testing.T) {
			t.Parallel()
			for _, p := range statsOnlyProtocols {
				cfg := BaseCache(p.opts)
				cfg.Protocol = p.proto
				cfg.DisableBusFilters = p.disable

				var dataLog eventLog
				bsData, csData := dataReplay(t, tr, cfg, bus.DefaultTiming(), &dataLog)

				var soLog eventLog
				bsSO, csSO, err := ReplayConfigProbed(tr, cfg, bus.DefaultTiming(), &soLog)
				if err != nil {
					t.Fatalf("%s: stats-only replay: %v", p.name, err)
				}

				if bsData != bsSO {
					t.Errorf("%s: bus stats diverge\ndata:       %+v\nstats-only: %+v", p.name, bsData, bsSO)
				}
				if csData != csSO {
					t.Errorf("%s: cache stats diverge\ndata:       %+v\nstats-only: %+v", p.name, csData, csSO)
				}
				sameEvents(t, p.name, dataLog.events, soLog.events)
			}
		})
	}
}

// TestStatsOnlyReaderEquivalence pins the streaming path: serializing a
// trace and replaying it straight from the decoder — with a probe
// attached — must reproduce the data-carrying oracle's statistics and
// event stream.
func TestStatsOnlyReaderEquivalence(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())

	var dataLog eventLog
	bsData, csData := dataReplay(t, tr, cfg, bus.DefaultTiming(), &dataLog)

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var soLog eventLog
	out, err := ReplayReaderResumable(context.Background(), d, cfg, bus.DefaultTiming(), &soLog, CheckpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Refs != uint64(tr.Len()) {
		t.Errorf("streamed %d refs, trace has %d", out.Refs, tr.Len())
	}
	if out.Bus != bsData {
		t.Errorf("bus stats diverge\ndata:     %+v\nstreamed: %+v", bsData, out.Bus)
	}
	if out.Cache != csData {
		t.Errorf("cache stats diverge\ndata:     %+v\nstreamed: %+v", csData, out.Cache)
	}
	sameEvents(t, "streamed", dataLog.events, soLog.events)
}

// TestStatsOnlySharded pins the sharded replay path against the
// unsharded data-carrying oracle.
func TestStatsOnlySharded(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 30_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())
	bsData, csData := dataReplay(t, tr, cfg, bus.DefaultTiming(), nil)
	bs, cs, err := ReplayConfigSharded(tr, cfg, bus.DefaultTiming(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if bs != bsData {
		t.Errorf("bus stats diverge\nunsharded data: %+v\nsharded:        %+v", bsData, bs)
	}
	if cs != csData {
		t.Errorf("cache stats diverge\nunsharded data: %+v\nsharded:        %+v", csData, cs)
	}
}

// TestStatsOnlyWarmed pins the warmed-checkpoint path: a stats-only
// machine checkpointed mid-replay and resumed must land on the
// data-carrying oracle's exact statistics.
func TestStatsOnlyWarmed(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 4
	sc.Events = 20_000
	tr := synth.ORParallel(sc)
	cfg := BaseCache(cache.OptionsAll())
	bsData, csData := dataReplay(t, tr, cfg, bus.DefaultTiming(), nil)
	wc := NewWarmCache(tr.Len() / 2)
	wc.Register(cfg, bus.DefaultTiming())
	wc.Register(cfg, bus.DefaultTiming())
	for i := 0; i < 2; i++ {
		bs, cs, err := wc.Replay(tr, cfg, bus.DefaultTiming())
		if err != nil {
			t.Fatalf("warmed replay %d: %v", i, err)
		}
		if bs != bsData {
			t.Errorf("replay %d: bus stats diverge\ncold data: %+v\nwarmed:    %+v", i, bsData, bs)
		}
		if cs != csData {
			t.Errorf("replay %d: cache stats diverge\ncold data: %+v\nwarmed:    %+v", i, csData, cs)
		}
	}
}

// TestStatsOnlyCollectRenderAll runs a reduced but structurally complete
// evaluation (live sweep, variants, sweeps, baselines) with warmed
// stats-only replays and holds every replayed number the rendered
// tables draw on to the data-carrying oracle, replay job by replay job.
func TestStatsOnlyCollectRenderAll(t *testing.T) {
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()

	o := Options{
		Quick:           true,
		PEs:             4,
		PESweep:         []int{1, 2, 4},
		BlockSizes:      []int{2, 4},
		Capacities:      []int{1 << 10, 4 << 10},
		Associativities: []int{1, 4},
		Benchmarks:      []string{"Puzzle"},
		Jobs:            1,
		WarmedSweeps:    true, // exercise stats-only checkpoints too
	}
	data, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(RenderAll(data)) == 0 {
		t.Fatal("rendered evaluation is empty")
	}
	bd := data.Benches[0]
	b, _ := programs.ByName("Puzzle")
	_, tr, err := RunLive(b, bd.Scale, o.PEs, o.baseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}

	// replayKeys lists Collect's replay jobs in serial order; walk the
	// dataset in the same order.
	keys := o.replayKeys()
	next := func(label string) (bus.Stats, cache.Stats) {
		if len(keys) == 0 {
			t.Fatalf("%s: more results than replay keys", label)
		}
		k := keys[0]
		keys = keys[1:]
		return dataReplay(t, tr, k.cfg, k.timing, nil)
	}
	for _, v := range OptVariants {
		bs, cs := next(v.Name)
		if bd.OptBus[v.Name] != bs || bd.OptCache[v.Name] != cs {
			t.Errorf("Table 4 %s: stats differ from the data-carrying replay", v.Name)
		}
	}
	for _, sweep := range [][]SweepPoint{bd.BlockSweep, bd.CapSweep, bd.WaySweep} {
		for _, p := range sweep {
			bs, cs := next("sweep")
			if p.BusCycles != bs.TotalCycles || p.MissRatio != cs.MissRatio() {
				t.Errorf("sweep point %d: %d cycles / miss %v, data-carrying %d / %v",
					p.Param, p.BusCycles, p.MissRatio, bs.TotalCycles, cs.MissRatio())
			}
		}
	}
	for _, got := range append([]ProtocolStats{
		{"two-word bus", bd.Width2}, {"illinois", bd.Illinois}, {"write-through", bd.WriteThrough},
	}, bd.AltBus...) {
		if bs, _ := next(got.Name); got.Bus != bs {
			t.Errorf("%s: bus stats differ from the data-carrying replay", got.Name)
		}
	}
	if len(keys) != 0 {
		t.Errorf("%d replay keys left unchecked", len(keys))
	}
}

// TestStatsOnlyLiveRefused pins the guard: a stats-only configuration
// handed to a live run must fail with a clear error, not silently feed
// the program zeros.
func TestStatsOnlyLiveRefused(t *testing.T) {
	b, _ := programs.ByName("Puzzle")
	cfg := BaseCache(cache.OptionsAll())
	cfg.StatsOnly = true
	_, _, err := RunLive(b, 2, 2, cfg, false)
	if err == nil {
		t.Fatal("live run on a stats-only config succeeded")
	}
	if !strings.Contains(err.Error(), "stats-only") {
		t.Errorf("error does not name the cause: %v", err)
	}
}

// TestRefAreaClassified pins the area class every producer stores in
// trace.Ref — the value the Apply loop trusts instead of classifying
// each reference again: the Recorder, Read, Reader.Next, Reader.SkipTo,
// the synth generators, and the sharded replayer's partitions.
func TestRefAreaClassified(t *testing.T) {
	check := func(label string, layout mem.Layout, refs []trace.Ref) {
		t.Helper()
		if len(refs) == 0 {
			t.Fatalf("%s: no references", label)
		}
		b := layout.Bounds()
		for i, r := range refs {
			if want := b.AreaOf(r.Addr); r.Area != want {
				t.Fatalf("%s: ref %d at %#x has area %v, want %v", label, i, r.Addr, r.Area, want)
			}
		}
	}
	for name, tr := range statsOnlyTraces(t) { // "puzzle" is recorded live
		check(name, tr.Layout, tr.Refs)
	}

	sc := synth.DefaultConfig()
	sc.Events = 20_000
	tr := synth.ORParallel(sc)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	read, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	check("Read", read.Layout, read.Refs)

	for _, skip := range []uint64{0, 5000} {
		d, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SkipTo(skip); err != nil {
			t.Fatal(err)
		}
		var got []trace.Ref
		chunk := make([]trace.Ref, 1000)
		for {
			n, err := d.Next(chunk)
			got = append(got, chunk[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("Next after SkipTo(%d)", skip), d.Layout(), got)
	}

	ccfg := BaseCache(cache.OptionsAll())
	for i, part := range partitionBySet(tr, ccfg, 4) {
		check(fmt.Sprintf("shard %d", i), part.Layout, part.Refs)
	}
}
