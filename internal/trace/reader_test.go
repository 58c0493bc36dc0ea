package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// encodeTrace serializes tr in the current format (v3) and returns the
// raw bytes for mutation.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pokeV3 applies poke to a copy of the encoded stream raw, then
// recomputes the header CRC and every chunk's CRC, so the damage gets
// past the checksums to the validations behind them: PE count, layout,
// declared count, op, address and truncation. poke may shorten the
// stream, but must keep each chunk's frame length true to its payload.
func pokeV3(raw []byte, poke func(b []byte) []byte) []byte {
	b := poke(append([]byte(nil), raw...))
	binary.LittleEndian.PutUint32(b[magicLen+headerBytes:], crc32.Checksum(b[magicLen:magicLen+headerBytes], castagnoli))
	for off := magicLen + headerBytes + 4; off+frameBytes <= len(b); {
		end := off + frameBytes + int(binary.LittleEndian.Uint32(b[off:]))
		binary.LittleEndian.PutUint32(b[off+4:], crc32.Checksum(b[off+frameBytes:end], castagnoli))
		off = end
	}
	return b
}

// chunk0 is the byte offset of the first chunk frame; chunk 0's
// payload, and so the first reference, starts frameBytes later.
const chunk0 = magicLen + headerBytes + 4

// readErr runs both decoders (materializing Read and streaming Reader)
// over raw and requires each to fail with a message containing want.
func readErr(t *testing.T, label string, raw []byte, want string) {
	t.Helper()
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Errorf("%s: Read accepted corrupt stream", label)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: Read error %q does not mention %q", label, err, want)
	}
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: NewReader error %q does not mention %q", label, err, want)
		}
		return
	}
	buf := make([]Ref, 4096)
	for {
		_, err := d.Next(buf)
		if err == io.EOF {
			t.Errorf("%s: Reader accepted corrupt stream", label)
			return
		}
		if err != nil {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Next error %q does not mention %q", label, err, want)
			}
			return
		}
	}
}

// smallTrace is a valid 4-PE stream for corruption tests.
func smallTrace() *Trace {
	var refs []Ref
	for i := 0; i < 100; i++ {
		refs = append(refs, MakeRef(uint8(i%4), cache.Op(i%int(cache.NumOps)), mem.AreaNone, word.Addr(i*3)))
	}
	return withAreas(New(4, mem.Layout{InstWords: 16, HeapWords: 256, GoalWords: 16, SuspWords: 8, CommWords: 8}, refs))
}

// TestReaderRejectsCorruptHeader covers the header validations: a PE
// count of zero or above the bus limit, and a layout wider than the
// 32-bit address space. The pokes recompute the header CRC, which
// would otherwise catch them first (see TestV3HeaderChecksum).
func TestReaderRejectsCorruptHeader(t *testing.T) {
	base := encodeTrace(t, smallTrace())
	setPEs := func(n uint32) func(b []byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[magicLen:], n)
			return b
		}
	}
	readErr(t, "pe=0", pokeV3(base, setPEs(0)), "PE count")
	readErr(t, "pe=200", pokeV3(base, setPEs(200)), "PE count")

	hugeLayout := pokeV3(base, func(b []byte) []byte {
		for off := 4; off <= 20; off += 4 {
			binary.LittleEndian.PutUint32(b[magicLen+off:], 0xFFFFFFFF)
		}
		return b
	})
	readErr(t, "huge layout", hugeLayout, "address space")
}

// TestReaderRejectsCorruptRefs covers the per-reference validations: a
// PE byte at or above the header's count, and an unknown op byte. The
// pokes recompute the chunk CRC, which would otherwise catch them first.
func TestReaderRejectsCorruptRefs(t *testing.T) {
	base := encodeTrace(t, smallTrace())
	const ref0 = chunk0 + frameBytes // first reference: [PE, op, addr x4]

	badPE := pokeV3(base, func(b []byte) []byte { b[ref0] = 9; return b }) // header says 4 PEs
	readErr(t, "bad ref PE", badPE, "out of range")

	badOp := pokeV3(base, func(b []byte) []byte { b[ref0+1] = 0xEE; return b })
	readErr(t, "bad ref op", badOp, "unknown op")
}

// TestReaderRejectsOutOfLayoutAddress pins the address check: a
// reference at or past the end of the header's layout names no memory
// word, so every decoder entry point (Read, Next, SkipTo, Verify) must
// refuse it with an error naming the reference and its byte offset —
// before a replay can index past the machine's tables.
func TestReaderRejectsOutOfLayoutAddress(t *testing.T) {
	tr := smallTrace()
	end := tr.Layout.Bounds().End
	refs := tr.Chunks[0] // the only chunk
	// The last word of the layout is legal.
	refs[41] = MakeRef(refs[41].PE(), refs[41].Op(), mem.AreaNone, end-1)
	withAreas(tr)
	if _, err := Read(bytes.NewReader(encodeTrace(t, tr))); err != nil {
		t.Fatalf("address end-1 rejected: %v", err)
	}

	refs[42] = MakeRef(refs[42].PE(), refs[42].Op(), mem.AreaNone, end)
	raw := encodeTrace(t, tr)
	want := fmt.Sprintf("ref 42 (byte offset %d)", chunk0+frameBytes+42*refBytes)
	readErr(t, "address at layout end", raw, want)
	if _, err := Verify(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "outside the header layout") {
		t.Errorf("Verify: %v, want an outside-the-layout error", err)
	}
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SkipTo(d.Len()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("SkipTo over the bad address: %v", err)
	}
}

// TestReadHugeDeclaredCount pins the allocation guard: a header
// declaring 2^40 references over a one-chunk body must fail with a
// truncation error, and Read must get there allocating under 1 MiB,
// since it allocates a chunk only once its frame has arrived, never
// from the declared count.
func TestReadHugeDeclaredCount(t *testing.T) {
	raw := pokeV3(encodeTrace(t, smallTrace()), func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[magicLen+24:], 1<<40)
		return b
	})
	readErr(t, "huge count", raw, "truncated")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Read accepted a stream shorter than its declared count")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("Read allocated %d bytes before failing, want under 1 MiB", n)
	}
}

// TestReaderTruncatedMidStream checks both decoders report the cut
// position instead of returning a short stream. The last two cases cut
// the (only) chunk and rewrite its frame and CRC to match, so only the
// reader's own accounting can notice: a cut at a reference boundary
// leaves the stream short of its declared count, and a cut inside a
// reference leaves a payload that is not a whole number of references.
func TestReaderTruncatedMidStream(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	readErr(t, "torn payload", raw[:len(raw)-5], "torn chunk")
	readErr(t, "missing chunk", raw[:chunk0], "next chunk missing")
	readErr(t, "torn frame", raw[:chunk0+3], "torn chunk frame")

	cut := func(n int) func(b []byte) []byte {
		return func(b []byte) []byte {
			plen := binary.LittleEndian.Uint32(b[chunk0:])
			binary.LittleEndian.PutUint32(b[chunk0:], plen-uint32(n))
			return b[:len(b)-n]
		}
	}
	readErr(t, "reframed at ref boundary", pokeV3(raw, cut(2*refBytes)), "98 of 100 refs delivered")
	readErr(t, "reframed mid-reference", pokeV3(raw, cut(5)), "payload length")
}

// TestV3HeaderChecksum pins the v3 header CRC: any header mutation is
// caught before its fields are even interpreted.
func TestV3HeaderChecksum(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	for _, off := range []int{0, 4, 24, 31} {
		bad := append([]byte(nil), raw...)
		bad[magicLen+off] ^= 0x01
		readErr(t, "header bit flip", bad, "header checksum mismatch")
	}
}

// TestV3ChunkChecksum is the fault class that motivates v3: a single
// flipped bit anywhere in a chunk payload — even in an address byte
// that still decodes to a legal reference — must fail with a checksum
// error naming the byte offset.
func TestV3ChunkChecksum(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(ChunkRefs+200))
	body := chunk0
	for _, off := range []int{
		body + frameBytes + 2,            // address byte, first ref, first chunk
		body + frameBytes + refBytes*100, // PE byte mid-chunk
		len(raw) - 1,                     // final byte of final chunk
		body + frameBytes + refBytes*ChunkRefs + frameBytes, // first byte of second chunk
	} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		readErr(t, "payload bit flip", bad, "checksum mismatch")
	}
	// A flipped frame: either the length check or the CRC catches it.
	badFrame := append([]byte(nil), raw...)
	badFrame[body] ^= 0x40
	readErr(t, "frame bit flip", badFrame, "chunk")
}

// TestV3RejectsOversizedChunk covers the frame-length validations: a
// length that is zero, not a multiple of the ref size, beyond the
// chunk cap, or larger than the refs remaining in the stream.
func TestV3RejectsOversizedChunk(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	frame := chunk0
	for _, plen := range []uint32{0, 7, refBytes*ChunkRefs + refBytes, refBytes * 101} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[frame:], plen)
		readErr(t, "bad frame length", bad, "corrupt chunk frame")
	}
}

// TestBothVersionsRoundTrip pins the format boundary: a PIMTRACE3
// stream reads back identically, and the same stream under the retired
// PIMTRACE2 magic is refused with the labeled bad-magic error by every
// decoder entry point instead of being decoded.
func TestBothVersionsRoundTrip(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs*2 + 33)
	raw := encodeTrace(t, tr)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.PEs != tr.PEs || got.Len() != tr.Len() || got.Layout != tr.Layout {
		t.Fatalf("header mismatch: %d/%d %+v", got.PEs, got.Len(), got.Layout)
	}
	sameRefs(t, got, tr)

	v2 := append([]byte("PIMTRACE2\n"), raw[magicLen:]...)
	readErr(t, "v2 magic", v2, "bad magic")
	if _, err := Verify(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Verify of a v2 stream: %v, want a bad-magic error", err)
	}
}

// TestSkipTo pins the resume seek: skipping to any chunk boundary, the
// stream's end included, delivers exactly the suffix, and rewinds or
// beyond-count targets are rejected.
func TestSkipTo(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs*2 + 50)
	raw := encodeTrace(t, tr)
	for _, target := range []uint64{0, ChunkRefs, 2 * ChunkRefs, uint64(tr.Len())} {
		d, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SkipTo(target); err != nil {
			t.Fatalf("SkipTo(%d): %v", target, err)
		}
		if d.Replayed() != target {
			t.Fatalf("SkipTo(%d): Replayed() = %d", target, d.Replayed())
		}
		var got []Ref
		dst := make([]Ref, ChunkRefs)
		for {
			n, err := d.Next(dst)
			got = append(got, dst[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("SkipTo(%d) then Next: %v", target, err)
			}
		}
		want := refsOf(tr)[target:]
		if len(got) != len(want) {
			t.Fatalf("SkipTo(%d): %d refs after skip, want %d", target, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SkipTo(%d): ref %d: %+v != %+v", target, i, got[i], want[i])
			}
		}
	}

	d, _ := NewReader(bytes.NewReader(raw))
	if err := d.SkipTo(ChunkRefs); err != nil {
		t.Fatal(err)
	}
	if err := d.SkipTo(0); err == nil || !strings.Contains(err.Error(), "rewind") {
		t.Errorf("rewind accepted: %v", err)
	}
	if err := d.SkipTo(uint64(tr.Len()) + 1); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("beyond-count skip accepted: %v", err)
	}
}

// TestSkipToDetectsCorruption: a resume seek must not glide over
// damage in the skipped region.
func TestSkipToDetectsCorruption(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(ChunkRefs*2))
	bad := append([]byte(nil), raw...)
	bad[chunk0+frameBytes+10] ^= 0x04 // inside chunk 0
	d, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	err = d.SkipTo(ChunkRefs) // the end of chunk 0
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("SkipTo over corrupt chunk: %v, want checksum mismatch", err)
	}
}

// TestResumeSeekRefusesMidChunk pins the reader's unit, the chunk:
// SkipTo to a target inside a chunk and Next into a destination with
// room for less than a chunk are refused with labeled errors before
// anything is read, so the reader still delivers the whole stream
// afterwards. A stream whose chunks are not ChunkRefs long, which no
// writer produces, has no boundary at a multiple of ChunkRefs, and a
// seek there fails once it passes the target.
func TestResumeSeekRefusesMidChunk(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs*2 + 50)
	raw := encodeTrace(t, tr)
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	off := d.Offset()
	for _, target := range []uint64{1, ChunkRefs + 1, uint64(tr.Len()) - 1} {
		want := fmt.Sprintf("trace: skip target %d is not a chunk boundary", target)
		if err := d.SkipTo(target); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("SkipTo(%d): %v, want %q", target, err, want)
		}
	}
	want := fmt.Sprintf("trace: Next needs room for a whole chunk (%d refs), got %d", ChunkRefs, ChunkRefs-1)
	if n, err := d.Next(make([]Ref, ChunkRefs-1)); n != 0 || err == nil || err.Error() != want {
		t.Errorf("Next into %d refs: %d refs, %v; want none and %q", ChunkRefs-1, n, err, want)
	}
	if d.Replayed() != 0 || d.Offset() != off {
		t.Fatalf("refused calls moved the reader to ref %d, byte offset %d (from %d)", d.Replayed(), d.Offset(), off)
	}
	if err := d.SkipTo(ChunkRefs); err != nil {
		t.Fatal(err)
	}
	var got []Ref
	dst := make([]Ref, ChunkRefs)
	for {
		n, err := d.Next(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sameRefs(t, New(tr.PEs, tr.Layout, got), New(tr.PEs, tr.Layout, refsOf(tr)[ChunkRefs:]))

	refs := refsOf(tr)
	odd := &Trace{PEs: tr.PEs, Layout: tr.Layout, Chunks: [][]Ref{refs[:100], refs[100 : ChunkRefs+100]}}
	d, err = NewReader(bytes.NewReader(encodeTrace(t, odd)))
	if err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("trace: skip target %d falls inside a chunk ending at ref %d", ChunkRefs, ChunkRefs+100)
	if err := d.SkipTo(ChunkRefs); err == nil || err.Error() != want {
		t.Errorf("SkipTo(%d) across odd chunks: %v, want %q", ChunkRefs, err, want)
	}
}

// TestVerify pins the stream validator: a clean stream yields its
// summary, a corrupt one the same offset-labeled error a replay gets.
func TestVerify(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs + 9)
	raw := encodeTrace(t, tr)
	info, err := Verify(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Verify clean stream: %v", err)
	}
	if info.Version != 3 || info.PEs != tr.PEs || info.Refs != uint64(tr.Len()) || info.Chunks != 2 || info.Bytes != int64(len(raw)) {
		t.Errorf("VerifyInfo %+v (stream: %d refs, %d bytes)", info, tr.Len(), len(raw))
	}

	bad := append([]byte(nil), raw...)
	bad[len(bad)-3] ^= 0x80
	if _, err := Verify(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("Verify corrupt stream: %v", err)
	}

	torn := raw[:len(raw)-4]
	if _, err := Verify(bytes.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "torn chunk") {
		t.Errorf("Verify torn stream: %v", err)
	}
}

// TestReaderHeader checks the streaming decoder surfaces the header
// verbatim.
func TestReaderHeader(t *testing.T) {
	tr := smallTrace()
	d, err := NewReader(bytes.NewReader(encodeTrace(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if d.PEs() != tr.PEs || d.Layout() != tr.Layout || d.Len() != uint64(tr.Len()) {
		t.Errorf("header mismatch: %d PEs, %+v, %d refs", d.PEs(), d.Layout(), d.Len())
	}
}

// TestStreamedReplayMatchesReplay pins chunked streaming replay — Reader
// chunks fed to a ChunkReplayer, as resumable replay does — against the
// materialized replay on a real recorded workload.
func TestStreamedReplayMatchesReplay(t *testing.T) {
	_, tr := traceCluster(t, testProgram, 2, cache.OptionsAll())
	raw := encodeTrace(t, tr)

	newMachine := func() (*machine.Machine, []mem.Accessor) {
		mcfg := machine.Config{
			PEs: tr.PEs, Layout: tr.Layout,
			Cache: cache.Config{SizeWords: 1 << 10, BlockWords: 4, Ways: 4,
				LockEntries: 4, Options: cache.OptionsAll(), VerifyDW: true},
		}
		mcfg.Timing.MemCycles = 8
		mcfg.Timing.WidthWords = 1
		m := machine.New(mcfg)
		ports := make([]mem.Accessor, tr.PEs)
		for i := range ports {
			ports[i] = m.Port(i)
		}
		return m, ports
	}

	m1, ports1 := newMachine()
	if err := Replay(tr, ports1); err != nil {
		t.Fatal(err)
	}
	d, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m2, ports2 := newMachine()
	cr, err := NewChunkReplayer(d.PEs(), ports2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Ref, ChunkRefs)
	n := 0
	for {
		k, err := d.Next(buf)
		if rerr := cr.Replay(buf[:k], n); rerr != nil {
			t.Fatal(rerr)
		}
		n += k
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if n != tr.Len() {
		t.Errorf("streamed %d refs, trace has %d", n, tr.Len())
	}
	if b1, b2 := m1.BusStats(), m2.BusStats(); b1 != b2 {
		t.Errorf("bus stats diverge\nmaterialized: %+v\nstreamed:     %+v", b1, b2)
	}
	if c1, c2 := m1.CacheStats(), m2.CacheStats(); c1 != c2 {
		t.Errorf("cache stats diverge\nmaterialized: %+v\nstreamed:     %+v", c1, c2)
	}
}

// TestChaosTrailingData pins the end of the stream: bytes after the last
// declared chunk — a second trace appended, or one stray byte, after a
// full or an empty trace — fail Read, Next, SkipTo and Verify with the
// byte offset of the first extra byte instead of being ignored.
func TestChaosTrailingData(t *testing.T) {
	for _, tr := range []*Trace{largeSyntheticTrace(ChunkRefs + 9), {PEs: 2, Layout: smallTrace().Layout}} {
		raw := encodeTrace(t, tr)
		if _, err := Verify(bytes.NewReader(raw)); err != nil {
			t.Fatalf("%d refs: Verify clean stream: %v", tr.Len(), err)
		}
		want := fmt.Sprintf("trailing data at byte offset %d after the last declared chunk", len(raw))
		for name, tail := range map[string][]byte{"second trace": raw, "one byte": {0}} {
			long := append(append([]byte(nil), raw...), tail...)
			label := fmt.Sprintf("%d refs + %s", tr.Len(), name)
			readErr(t, label, long, want)
			if _, err := Verify(bytes.NewReader(long)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: Verify: %v, want %q", label, err, want)
			}
			if d, err := NewReader(bytes.NewReader(long)); err == nil {
				if err := d.SkipTo(d.Len()); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: SkipTo the end: %v, want %q", label, err, want)
				}
			}
		}
	}
}

// TestResumeIdentityChain pins the reader's chunk chain, the trace
// identity a checkpoint records: the CRC32C over the stored chunk
// checksums in order, the same whether the chunks were delivered or
// skipped, and different from the first chunk whose content differs.
func TestResumeIdentityChain(t *testing.T) {
	tr := largeSyntheticTrace(ChunkRefs*3 + 5)
	raw := encodeTrace(t, tr)
	var sums []byte
	for off := chunk0; off < len(raw); off += frameBytes + int(binary.LittleEndian.Uint32(raw[off:])) {
		sums = append(sums, raw[off+4:off+8]...)
	}
	chains := func(raw []byte) []uint32 {
		d, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		out := []uint32{d.Chain()}
		buf := make([]Ref, ChunkRefs)
		for {
			_, err := d.Next(buf)
			out = append(out, d.Chain())
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	got := chains(raw)
	if want := crc32.Checksum(sums, castagnoli); got[len(got)-1] != want {
		t.Errorf("chain after the last chunk %08x, want the CRC32C of the chunk checksums %08x", got[len(got)-1], want)
	}
	for k := range got {
		d, _ := NewReader(bytes.NewReader(raw))
		if err := d.SkipTo(min(uint64(k*ChunkRefs), d.Len())); err != nil {
			t.Fatal(err)
		}
		if d.Chain() != got[k] {
			t.Errorf("chain after skipping %d chunks %08x, after delivering them %08x", k, d.Chain(), got[k])
		}
	}

	edited := largeSyntheticTrace(tr.Len())
	edited.Chunks[1][7].pe ^= 1
	other := chains(encodeTrace(t, edited))
	for k := range got {
		if same := other[k] == got[k]; same != (k < 2) {
			t.Errorf("after %d chunks: chains equal = %v, want %v (chunk 1 differs)", k, same, k < 2)
		}
	}
}
