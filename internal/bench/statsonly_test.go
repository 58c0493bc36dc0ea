package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"
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
// through ReplayConfig (stats-only, cache.Apply) must yield
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
				bsSO, csSO, err := ReplayConfig(tr, cfg, bus.DefaultTiming(), &soLog)
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

// TestStatsOnlyCollectRenderAll runs a reduced but structurally complete
// evaluation (live sweep, variants, sweeps, baselines) whose sweeps
// repeat the base configuration, and holds every replayed number the
// rendered tables draw on to the data-carrying oracle: it walks the
// replay table and gives every row — the ones Collect served from
// another row's replay included — its own data-carrying replay.
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
	_, tr, err := RunLive(b, bd.Scale, o.PEs, BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}

	want := newBenchData(b, bd.Scale)
	want.LiveByPEs, want.Refs = bd.LiveByPEs, bd.Refs
	jobs, runs := o.replayTable()
	if len(runs) == len(jobs) {
		t.Fatal("the table repeats no configuration; the test would not cover reuse")
	}
	for _, j := range jobs {
		bs, cs := dataReplay(t, tr, j.cfg, j.timing, nil)
		j.store(want, bs, cs)
	}
	if !reflect.DeepEqual(bd, want) {
		t.Errorf("replayed dataset differs from the data-carrying replays\ngot:  %+v\nwant: %+v", bd, want)
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
// each reference again: the Recorder, Read, Reader.Next, Reader.SkipTo
// and the synth generators.
func TestRefAreaClassified(t *testing.T) {
	check := func(label string, layout mem.Layout, refs []trace.Ref) {
		t.Helper()
		if len(refs) == 0 {
			t.Fatalf("%s: no references", label)
		}
		b := layout.Bounds()
		for i, r := range refs {
			if want := b.AreaOf(r.Addr()); r.Area() != want {
				t.Fatalf("%s: ref %d at %#x has area %v, want %v", label, i, r.Addr(), r.Area(), want)
			}
		}
	}
	for name, tr := range statsOnlyTraces(t) { // "puzzle" is recorded live
		check(name, tr.Layout, slices.Concat(tr.Chunks...))
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
	check("Read", read.Layout, slices.Concat(read.Chunks...))

	for _, skip := range []uint64{0, trace.ChunkRefs} {
		d, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SkipTo(skip); err != nil {
			t.Fatal(err)
		}
		var got []trace.Ref
		chunk := make([]trace.Ref, trace.ChunkRefs)
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
}
