package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// TestRefPacking pins the in-memory reference: six bytes, its on-disk
// record with the area in the op byte's high nibble, which holds only
// while every op and every area fits in a nibble. MakeRef and the
// accessors must round-trip every op and area with the extreme PEs and
// the addresses around each 16-bit half's boundary, and the encoder
// must drop the area from the op byte it writes.
func TestRefPacking(t *testing.T) {
	if size := unsafe.Sizeof(Ref{}); size != refBytes {
		t.Errorf("a Ref takes %d bytes, want %d", size, refBytes)
	}
	if cache.NumOps > 16 || mem.NumAreas > 16 {
		t.Fatalf("%d ops and %d areas: each must fit in a nibble", cache.NumOps, mem.NumAreas)
	}
	layout := mem.Layout{InstWords: 1, HeapWords: 1, GoalWords: 1, SuspWords: 1, CommWords: 1}
	for op := cache.Op(0); op < cache.NumOps; op++ {
		for area := mem.Area(0); area < mem.NumAreas; area++ {
			for _, pe := range []uint8{0, 1, 63} {
				for _, a := range []word.Addr{0, 1, 0xFFFF, 0x10000, 0xFFFFFFFF} {
					r := MakeRef(pe, op, area, a)
					if r.PE() != pe || r.Op() != op || r.Area() != area || r.Addr() != a {
						t.Fatalf("MakeRef(%d, %v, %v, %#x) = %v", pe, op, area, a, r)
					}
					var buf bytes.Buffer
					if err := (&Trace{PEs: 64, Layout: layout, Refs: []Ref{r}}).Write(&buf); err != nil {
						t.Fatal(err)
					}
					rec := buf.Bytes()[buf.Len()-refBytes:]
					if want := []byte{pe, byte(op), byte(a), byte(a >> 8), byte(a >> 16), byte(a >> 24)}; !bytes.Equal(rec, want) {
						t.Fatalf("%v is written as % x, want % x", r, rec, want)
					}
				}
			}
		}
	}
	if got, want := MakeRef(3, cache.OpLR, mem.AreaHeap, 0x12345).String(), "{PE 3 LR 0x12345 heap}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRecordingPortForwardsAndRecords(t *testing.T) {
	layout := mem.Layout{InstWords: 64, HeapWords: 256, GoalWords: 64, SuspWords: 32, CommWords: 32}
	m := mem.New(layout)
	rec := NewRecorder(1, layout)
	port := rec.Port(0, mem.DirectAccessor{M: m})
	a := m.Bounds().HeapBase
	port.Write(a, word.Int(7))
	if got := port.Read(a); got.IntVal() != 7 {
		t.Fatalf("forwarding broken: %v", got)
	}
	port.DirectWrite(a+1, word.Int(8))
	port.ExclusiveRead(a + 1)
	port.ReadPurge(a + 2)
	port.ReadInvalidate(a + 3)
	if _, ok := port.LockRead(a); !ok {
		t.Fatal("LockRead failed")
	}
	port.UnlockWrite(a, word.Int(9))
	tr := rec.Trace()
	wantOps := []cache.Op{cache.OpW, cache.OpR, cache.OpDW, cache.OpER,
		cache.OpRP, cache.OpRI, cache.OpLR, cache.OpUW}
	if tr.Len() != len(wantOps) {
		t.Fatalf("recorded %d refs, want %d", tr.Len(), len(wantOps))
	}
	for i, op := range wantOps {
		if tr.Refs[i].Op() != op {
			t.Errorf("ref %d op = %v, want %v", i, tr.Refs[i].Op(), op)
		}
	}
}

// driveRecorder sends n references through rec's ports: reads and
// writes by three PEs over a heap span wider than one memory page.
func driveRecorder(rec *Recorder, m *mem.Memory, n int) {
	ports := []mem.Accessor{rec.Port(0, mem.DirectAccessor{M: m}), rec.Port(1, mem.DirectAccessor{M: m}), rec.Port(2, mem.DirectAccessor{M: m})}
	base := m.Bounds().HeapBase
	for i := 0; i < n; i++ {
		a := base + word.Addr(i*7919%6000)
		if i%3 == 0 {
			ports[i%3].Write(a, word.Int(int64(i)))
		} else {
			ports[i%3].Read(a)
		}
	}
}

// TestStreamRecorderMatchesWrite: a stream recorder writes the bytes
// Trace.Write produces for the same references — at chunk boundaries,
// across them and for an empty stream — and reads back through Read.
func TestStreamRecorderMatchesWrite(t *testing.T) {
	layout := mem.Layout{InstWords: 64, HeapWords: 8192, GoalWords: 64, SuspWords: 32, CommWords: 32}
	for _, n := range []int{0, 1, refsPerChunk - 1, refsPerChunk, refsPerChunk + 1, 3*refsPerChunk + 17} {
		mem1, mem2 := mem.New(layout), mem.New(layout)
		want := NewRecorder(3, layout)
		driveRecorder(want, mem1, n)
		var wantBytes bytes.Buffer
		if err := want.Trace().Write(&wantBytes); err != nil {
			t.Fatal(err)
		}

		f, err := os.Create(filepath.Join(t.TempDir(), "t.trc"))
		if err != nil {
			t.Fatal(err)
		}
		rec := NewStreamRecorder(f, 3, layout)
		driveRecorder(rec, mem2, n)
		if len(rec.Trace().Refs) >= refsPerChunk {
			t.Errorf("%d refs: the stream recorder holds %d references", n, len(rec.Trace().Refs))
		}
		if rec.Len() != n {
			t.Errorf("Len = %d, want %d", rec.Len(), n)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes.Bytes()) {
			t.Errorf("%d refs: stream recorder wrote %d bytes that differ from Trace.Write's %d", n, len(got), wantBytes.Len())
		}
		if tr, err := Read(bytes.NewReader(got)); err != nil || tr.Len() != n {
			t.Errorf("%d refs: reading the streamed trace back: %v", n, err)
		}
	}
}

// TestStreamRecorderReportsWriteErrors: a failed chunk write is kept
// and returned by Close, which then writes no header.
func TestStreamRecorderReportsWriteErrors(t *testing.T) {
	layout := mem.Layout{InstWords: 64, HeapWords: 8192, GoalWords: 64, SuspWords: 32, CommWords: 32}
	f, err := os.Create(filepath.Join(t.TempDir(), "t.trc"))
	if err != nil {
		t.Fatal(err)
	}
	rec := NewStreamRecorder(f, 3, layout)
	f.Close() // every later write fails
	driveRecorder(rec, mem.New(layout), 2*refsPerChunk)
	if err := rec.Close(); err == nil {
		t.Error("Close after failed writes returned nil")
	}
}

// withAreas fills in every reference's area class from the trace's
// layout, as the real producers (Recorder, Reader, synth) do. Hand-built
// test traces go through it so decoded streams compare equal to them.
func withAreas(tr *Trace) *Trace {
	b := tr.Layout.Bounds()
	for i, r := range tr.Refs {
		tr.Refs[i] = MakeRef(r.PE(), r.Op(), b.AreaOf(r.Addr()), r.Addr())
	}
	return tr
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := &Trace{PEs: 4, Layout: mem.Layout{InstWords: 100, HeapWords: 20000, GoalWords: 3000, SuspWords: 4000, CommWords: 10000}}
	for i := 0; i < 1000; i++ {
		tr.Refs = append(tr.Refs, MakeRef(uint8(i%4), cache.Op(i%int(cache.NumOps)), mem.AreaNone, word.Addr(i*37)))
	}
	withAreas(tr)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.PEs != tr.PEs || got.Len() != tr.Len() || got.Layout != tr.Layout {
		t.Fatalf("header mismatch: %d/%d %+v", got.PEs, got.Len(), got.Layout)
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %v != %v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("NOTATRACE!\nxxxx")); err == nil {
		t.Error("bad magic accepted")
	}
}

// largeSyntheticTrace builds a deterministic stream big enough to span
// many decode chunks, with addresses exercising all four on-disk bytes.
// The layout spans 2^31 words, so every 31-bit address lies inside it.
func largeSyntheticTrace(refs int) *Trace {
	tr := &Trace{PEs: 16, Layout: mem.Layout{InstWords: 1, HeapWords: 2, GoalWords: 3, SuspWords: 4, CommWords: 1 << 31}}
	tr.Refs = make([]Ref, refs)
	for i := range tr.Refs {
		// Fibonacci hashing puts addresses on every byte.
		tr.Refs[i] = MakeRef(uint8(i%16), cache.Op(i%int(cache.NumOps)), mem.AreaNone, word.Addr(uint32(i)*2654435761)>>1)
	}
	return withAreas(tr)
}

// TestLargeSerializationRoundTrip round-trips a stream that spans many
// read chunks, including a length deliberately not a multiple of the
// chunk size, so the chunked decoder's tail handling is covered.
func TestLargeSerializationRoundTrip(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk*3 + 17)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.PEs != tr.PEs || got.Len() != tr.Len() || got.Layout != tr.Layout {
		t.Fatalf("header mismatch: %d/%d %+v", got.PEs, got.Len(), got.Layout)
	}
	for i := range tr.Refs {
		if got.Refs[i] != tr.Refs[i] {
			t.Fatalf("ref %d: %v != %v", i, got.Refs[i], tr.Refs[i])
		}
	}
}

// TestReadRejectsTruncatedStream checks the chunked decoder still reports
// a stream cut off mid-chunk instead of returning a short trace.
func TestReadRejectsTruncatedStream(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk + 100)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// BenchmarkTraceDecode measures Read on a large in-memory stream — the
// chunked decoder's target workload.
func BenchmarkTraceDecode(b *testing.B) {
	tr := largeSyntheticTrace(1 << 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatalf("Write: %v", err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			b.Fatalf("Read: %v", err)
		}
	}
}

// BenchmarkTraceEncode is the matching Write benchmark.
func BenchmarkTraceEncode(b *testing.B) {
	tr := largeSyntheticTrace(1 << 20)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatalf("Write: %v", err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.Write(&buf); err != nil {
			b.Fatalf("Write: %v", err)
		}
	}
}

// traceCluster runs an FGHC program with recording ports and returns both
// the live machine stats and the trace.
func traceCluster(t *testing.T, src string, pes int, opts cache.Options) (*machine.Machine, *Trace) {
	t.Helper()
	mcfg := machine.Config{
		PEs: pes,
		Layout: mem.Layout{InstWords: 16 << 10, HeapWords: 256 << 10,
			GoalWords: 32 << 10, SuspWords: 8 << 10, CommWords: 4 << 10},
		Cache: cache.Config{SizeWords: 1 << 10, BlockWords: 4, Ways: 4,
			LockEntries: 4, Options: opts, VerifyDW: true},
		Timing: bus.DefaultTiming(),
	}
	rec := NewRecorder(pes, mcfg.Layout)
	cl, err := emulator.NewCluster(compileSrc(t, src), mcfg, emulator.DefaultConfig(), rec.Port, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := cl.Machine.Run(10_000_000)
	if res.Failed || res.HitStepLimit {
		t.Fatalf("live run failed: %+v", res)
	}
	return cl.Machine, rec.Trace()
}

const testProgram = `
main :- true | produce(30, S), consume(S, 0, R), println(R).
produce(0, S) :- true | S = [].
produce(N, S) :- N > 0 | S = [N|S1], N1 := N - 1, produce(N1, S1).
consume([], Acc, R) :- true | R = Acc.
consume([H|T], Acc, R) :- true | A1 := Acc + H, consume(T, A1, R).
`

// TestReplayReproducesLiveRun is the key property: replaying the trace
// against an identically configured cache stack produces identical bus
// statistics.
func TestReplayReproducesLiveRun(t *testing.T) {
	opts := cache.OptionsAll()
	liveMachine, tr := traceCluster(t, testProgram, 2, opts)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}

	replayMachine := machine.New(liveMachine.Config())
	ports := make([]mem.Accessor, 2)
	for i := range ports {
		ports[i] = replayMachine.Port(i)
	}
	if err := Replay(tr, ports); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	live, rep := liveMachine.BusStats(), replayMachine.BusStats()
	if live.TotalCycles != rep.TotalCycles {
		t.Errorf("bus cycles: live %d, replay %d", live.TotalCycles, rep.TotalCycles)
	}
	for p := bus.Pattern(0); p < bus.NumPatterns; p++ {
		if live.CountByPattern[p] != rep.CountByPattern[p] {
			t.Errorf("pattern %v: live %d, replay %d", p,
				live.CountByPattern[p], rep.CountByPattern[p])
		}
	}
	liveCS, repCS := liveMachine.CacheStats(), replayMachine.CacheStats()
	if liveCS.MissRatio() != repCS.MissRatio() {
		t.Errorf("miss ratio: live %v, replay %v", liveCS.MissRatio(), repCS.MissRatio())
	}
}

// TestReplayAcrossConfigs replays one trace against several cache
// configurations, checking the expected qualitative ordering.
func TestReplayAcrossConfigs(t *testing.T) {
	_, tr := traceCluster(t, testProgram, 2, cache.OptionsAll())

	cycles := func(opts cache.Options, blockWords, sizeWords int) uint64 {
		mcfg := machine.Config{
			PEs: 2,
			Layout: mem.Layout{InstWords: 16 << 10, HeapWords: 256 << 10,
				GoalWords: 32 << 10, SuspWords: 8 << 10, CommWords: 4 << 10},
			Cache: cache.Config{SizeWords: sizeWords, BlockWords: blockWords,
				Ways: 4, LockEntries: 4, Options: opts},
			Timing: bus.DefaultTiming(),
		}
		m := machine.New(mcfg)
		ports := []mem.Accessor{m.Port(0), m.Port(1)}
		if err := Replay(tr, ports); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		return m.BusStats().TotalCycles
	}

	all := cycles(cache.OptionsAll(), 4, 1<<10)
	none := cycles(cache.OptionsNone(), 4, 1<<10)
	if all >= none {
		t.Errorf("optimizations did not reduce traffic: all=%d none=%d", all, none)
	}
	big := cycles(cache.OptionsAll(), 4, 4<<10)
	if big > all {
		t.Errorf("larger cache increased traffic: %d > %d", big, all)
	}
}

func compileSrc(t *testing.T, src string) *compile.Image {
	t.Helper()
	img, err := compile.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestReplayRefusesLockMisuse: a well-formed trace whose lock references
// no live run produces — an unmatched U, a PE re-locking a word it
// holds, more simultaneous locks than the lock directory has entries —
// ends the replay with an error naming the reference and its PE, where
// a live run panics.
func TestReplayRefusesLockMisuse(t *testing.T) {
	layout := mem.DefaultLayout()
	a := layout.Bounds().HeapBase
	ref := func(op cache.Op, addr word.Addr) Ref { return MakeRef(1, op, mem.AreaNone, addr) }
	for _, tc := range []struct {
		name string
		refs []Ref
		want string
	}{
		{"unmatched U", []Ref{ref(cache.OpR, a), ref(cache.OpU, a)},
			"trace: ref 1 (PE 1): cache: unlock of unheld address"},
		{"unmatched UW", []Ref{ref(cache.OpUW, a)},
			"trace: ref 0 (PE 1): cache: unlock of unheld address"},
		{"re-lock", []Ref{ref(cache.OpLR, a), ref(cache.OpLR, a)},
			"trace: ref 1 (PE 1): cache: re-locking"},
		{"directory overflow", []Ref{ref(cache.OpLR, a), ref(cache.OpLR, a+1),
			ref(cache.OpLR, a+2), ref(cache.OpLR, a+3), ref(cache.OpLR, a+4)},
			"trace: ref 4 (PE 1): cache: lock directory overflow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := withAreas(&Trace{PEs: 2, Layout: layout, Refs: tc.refs})
			ccfg := cache.DefaultConfig()
			ccfg.StatsOnly = true
			m := machine.New(machine.Config{PEs: 2, Layout: layout, Cache: ccfg, Timing: bus.DefaultTiming()})
			err := Replay(tr, []mem.Accessor{m.Port(0), m.Port(1)})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Replay = %v, want %q", err, tc.want)
			}
		})
	}
}
