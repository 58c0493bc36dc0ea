package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/probe"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// TestProbeDeterminism is the telemetry correctness oracle: for every
// benchmark program and PE count, (a) two identical live runs emit
// identical full event streams, scheduler events included, and (b) a
// live run and a replay of its recorded trace emit identical
// memory-system event streams. Any divergence means an emit site
// depends on something other than the reference stream and the cache
// configuration.
func TestProbeDeterminism(t *testing.T) {
	pesList := []int{1, 4, 8}
	if testing.Short() {
		pesList = []int{1, 8}
	}
	ccfg := BaseCache(cache.OptionsAll())
	timing := bus.DefaultTiming()
	for _, b := range programs.All() {
		b := b
		scale, ok := equivScales[b.Name]
		if !ok {
			scale = b.SmallScale
		}
		if testing.Short() && b.Name == "Semi" {
			continue // the largest stream; the other three cover every op
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, pes := range pesList {
				buf1, buf2 := &probe.Buffer{}, &probe.Buffer{}
				rec := trace.NewRecorder(pes, Layout())
				if _, err := RunLiveTiming(b, scale, pes, ccfg, timing, rec, buf1); err != nil {
					t.Fatalf("probed live run at %d PEs: %v", pes, err)
				}
				tr := rec.Trace()
				if _, err := RunLiveTiming(b, scale, pes, ccfg, timing, nil, buf2); err != nil {
					t.Fatalf("second probed live run at %d PEs: %v", pes, err)
				}
				if len(buf1.Events) == 0 {
					t.Fatalf("%d PEs: live run emitted no events", pes)
				}
				if !eventsEqual(buf1.Events, buf2.Events) {
					t.Errorf("%d PEs: two identical live runs emitted different streams (%d vs %d events)",
						pes, len(buf1.Events), len(buf2.Events))
					continue
				}
				replay := &probe.Buffer{}
				if _, _, err := ReplayConfig(tr, ccfg, timing, replay); err != nil {
					t.Fatalf("probed replay at %d PEs: %v", pes, err)
				}
				liveMem := buf1.MemoryEvents()
				if !eventsEqual(liveMem, replay.Events) {
					t.Errorf("%d PEs: live memory events (%d) diverge from replay events (%d)",
						pes, len(liveMem), len(replay.Events))
					for i := range liveMem {
						if i >= len(replay.Events) || liveMem[i] != replay.Events[i] {
							t.Errorf("first divergence at event %d:\nlive:   %+v\nreplay: %+v",
								i, liveMem[i], eventAt(replay.Events, i))
							break
						}
					}
				}
			}
		})
	}
}

func eventsEqual(a, b []probe.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eventAt(es []probe.Event, i int) any {
	if i < len(es) {
		return es[i]
	}
	return "(stream ended)"
}

// TestPerfettoByteIdentity pins the export-level acceptance criterion:
// Tri at 8 PEs produces a Perfetto JSON that is byte-identical across
// repeated live runs, and — restricted to memory-system events —
// byte-identical between live execution and trace replay.
func TestPerfettoByteIdentity(t *testing.T) {
	const pes = 8
	b, _ := programs.ByName("Tri")
	scale := equivScales["Tri"]
	ccfg := BaseCache(cache.OptionsAll())
	timing := bus.DefaultTiming()

	export := func(record bool, memOnly bool) ([]byte, []byte) {
		var buf bytes.Buffer
		pf := probe.NewPerfetto(&buf, pes)
		var sink probe.Sink = pf
		if memOnly {
			sink = probe.MemoryOnly(pf)
		}
		var rec *trace.Recorder
		if record {
			rec = trace.NewRecorder(pes, Layout())
		}
		if _, err := RunLiveTiming(b, scale, pes, ccfg, timing, rec, sink); err != nil {
			t.Fatal(err)
		}
		if err := pf.Close(); err != nil {
			t.Fatal(err)
		}
		var trBytes []byte
		if record {
			var tb bytes.Buffer
			if err := rec.Trace().Write(&tb); err != nil {
				t.Fatal(err)
			}
			trBytes = tb.Bytes()
		}
		return buf.Bytes(), trBytes
	}

	// Full export (scheduler events included): identical across runs.
	full1, trBytes := export(true, false)
	full2, _ := export(false, false)
	if !bytes.Equal(full1, full2) {
		t.Error("repeated live runs exported different Perfetto files")
	}
	if !json.Valid(full1) {
		t.Error("live export is not valid JSON")
	}

	// Memory-only export: identical between live and replay.
	live, _ := export(false, true)
	tr, err := trace.Read(bytes.NewReader(trBytes))
	if err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	pf := probe.NewPerfetto(&rbuf, pes)
	if _, _, err := ReplayConfig(tr, ccfg, timing, pf); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, rbuf.Bytes()) {
		t.Errorf("live memory-only export (%d bytes) differs from replay export (%d bytes)",
			len(live), rbuf.Len())
	}
	if !json.Valid(rbuf.Bytes()) {
		t.Error("replay export is not valid JSON")
	}
}

// TestProbeDisabledZeroAlloc guards the zero-overhead-when-nil
// contract on the replay hot path: with no sink attached, steady-state
// reads, writes and lock traffic — hits and misses, private and
// shared — allocate nothing.
func TestProbeDisabledZeroAlloc(t *testing.T) {
	m := machine.New(machine.Config{
		PEs:    2,
		Layout: Layout(),
		Cache:  BaseCache(cache.OptionsAll()),
		Timing: bus.DefaultTiming(),
	})
	p0, p1 := m.Port(0), m.Port(1)
	heap := Layout().Bounds().HeapBase
	// Warm both caches and the lock directory.
	p0.Write(heap, word.Word(1))
	_ = p1.Read(heap)

	var addr word.Addr
	if avg := testing.AllocsPerRun(500, func() {
		// Ping-pong writes force c2c transfers and invalidations; the
		// stride forces misses and evictions as the set fills.
		p0.Write(heap+addr, word.Word(2))
		_ = p1.Read(heap + addr)
		if w, ok := p1.LockRead(heap + addr); ok {
			p1.UnlockWrite(heap+addr, w)
		}
		addr += 4
	}); avg != 0 {
		t.Errorf("disabled-probe hot path allocates %.2f per op, want 0", avg)
	}
}
