package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// encodeTraceV2 serializes tr in the legacy flat format, whose fixed
// byte layout the offset-poking corruption tests rely on.
func encodeTraceV2(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteVersion(&buf, 2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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
	tr := &Trace{PEs: 4, Layout: mem.Layout{InstWords: 16, HeapWords: 256, GoalWords: 16, SuspWords: 8, CommWords: 8}}
	for i := 0; i < 100; i++ {
		tr.Refs = append(tr.Refs, Ref{
			PE:   uint8(i % 4),
			Op:   cache.Op(i % int(cache.NumOps)),
			Addr: word.Addr(i * 3),
		})
	}
	return withAreas(tr)
}

// TestReaderRejectsCorruptHeader covers the header validations: a PE
// count of zero or above the bus limit, and a layout wider than the
// 32-bit address space. The pokes target the unchecksummed v2 layout;
// the same pokes on v3 are caught earlier by the header CRC (see
// TestV3HeaderChecksum).
func TestReaderRejectsCorruptHeader(t *testing.T) {
	base := encodeTraceV2(t, smallTrace())
	hdr := len(magicV2)

	zeroPE := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(zeroPE[hdr:], 0)
	readErr(t, "pe=0", zeroPE, "PE count")

	bigPE := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(bigPE[hdr:], 200)
	readErr(t, "pe=200", bigPE, "PE count")

	hugeLayout := append([]byte(nil), base...)
	for off := 4; off <= 20; off += 4 {
		binary.LittleEndian.PutUint32(hugeLayout[hdr+off:], 0xFFFFFFFF)
	}
	readErr(t, "huge layout", hugeLayout, "address space")
}

// TestReaderRejectsCorruptRefs covers the per-reference validations: a
// PE byte at or above the header's count, and an unknown op byte.
func TestReaderRejectsCorruptRefs(t *testing.T) {
	base := encodeTraceV2(t, smallTrace())
	ref0 := len(magicV2) + headerBytes // first reference: [PE, op, addr x4]

	badPE := append([]byte(nil), base...)
	badPE[ref0] = 9 // header says 4 PEs
	readErr(t, "bad ref PE", badPE, "out of range")

	badOp := append([]byte(nil), base...)
	badOp[ref0+1] = 0xEE
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
	tr.Refs[41].Addr = end - 1 // last word: legal
	withAreas(tr)
	if _, err := Read(bytes.NewReader(encodeTrace(t, tr))); err != nil {
		t.Fatalf("address end-1 rejected: %v", err)
	}

	tr.Refs[42].Addr = end
	const want = "ref 42 (byte offset "
	for _, raw := range [][]byte{encodeTrace(t, tr), encodeTraceV2(t, tr)} {
		readErr(t, "address at layout end", raw, want)
		if _, err := Verify(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "outside the header layout") {
			t.Errorf("Verify: %v, want an outside-the-layout error", err)
		}
		d, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SkipTo(50); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SkipTo over the bad address: %v", err)
		}
	}
	v2 := encodeTraceV2(t, tr)
	_, err := Read(bytes.NewReader(v2))
	if wantOff := fmt.Sprintf("byte offset %d)", len(magicV2)+headerBytes+42*refBytes); err == nil || !strings.Contains(err.Error(), wantOff) {
		t.Errorf("v2 error %v does not name %q", err, wantOff)
	}
}

// TestReadHugeDeclaredCount pins the preallocation guard: a header
// declaring 2^40 references over an empty body must fail with a
// truncation error without first attempting a multi-terabyte
// allocation.
func TestReadHugeDeclaredCount(t *testing.T) {
	base := encodeTraceV2(t, smallTrace())
	raw := append([]byte(nil), base...)
	binary.LittleEndian.PutUint64(raw[len(magicV2)+24:], 1<<40)
	readErr(t, "huge count", raw, "truncated")
}

// TestReaderTruncatedMidStream checks both decoders report the cut
// position instead of returning a short stream, in both formats.
func TestReaderTruncatedMidStream(t *testing.T) {
	rawV2 := encodeTraceV2(t, smallTrace())
	readErr(t, "v2 truncated", rawV2[:len(rawV2)-5], "torn final reference")
	readErr(t, "v2 truncated at ref boundary", rawV2[:len(rawV2)-2*refBytes], "truncated at byte offset")

	rawV3 := encodeTrace(t, smallTrace())
	readErr(t, "v3 torn payload", rawV3[:len(rawV3)-5], "torn chunk")
	readErr(t, "v3 missing chunk", rawV3[:len(magicV3)+headerBytes+4], "next chunk missing")
	readErr(t, "v3 torn frame", rawV3[:len(magicV3)+headerBytes+4+3], "torn chunk frame")
}

// TestV3HeaderChecksum pins the v3 header CRC: any header mutation is
// caught before its fields are even interpreted.
func TestV3HeaderChecksum(t *testing.T) {
	raw := encodeTrace(t, smallTrace())
	for _, off := range []int{0, 4, 24, 31} {
		bad := append([]byte(nil), raw...)
		bad[len(magicV3)+off] ^= 0x01
		readErr(t, "header bit flip", bad, "header checksum mismatch")
	}
}

// TestV3ChunkChecksum is the fault class that motivates v3: a single
// flipped bit anywhere in a chunk payload — even in an address byte a
// v2 decoder would swallow silently — must fail with a checksum error
// naming the byte offset.
func TestV3ChunkChecksum(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(refsPerChunk+200))
	body := len(magicV3) + headerBytes + 4
	for _, off := range []int{
		body + frameBytes + 2,            // address byte, first ref, first chunk
		body + frameBytes + refBytes*100, // PE byte mid-chunk
		len(raw) - 1,                     // final byte of final chunk
		body + frameBytes + refBytes*refsPerChunk + frameBytes, // first byte of second chunk
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
	frame := len(magicV3) + headerBytes + 4
	for _, plen := range []uint32{0, 7, refBytes*refsPerChunk + refBytes, refBytes * 101} {
		bad := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(bad[frame:], plen)
		readErr(t, "bad frame length", bad, "corrupt chunk frame")
	}
}

// TestBothVersionsRoundTrip pins that every written version reads back
// identically and reports its version.
func TestBothVersionsRoundTrip(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk*2 + 33)
	for _, version := range []int{2, 3} {
		var buf bytes.Buffer
		if err := tr.WriteVersion(&buf, version); err != nil {
			t.Fatalf("v%d Write: %v", version, err)
		}
		d, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("v%d NewReader: %v", version, err)
		}
		if d.Version() != version {
			t.Errorf("Version() = %d, want %d", d.Version(), version)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("v%d Read: %v", version, err)
		}
		if got.PEs != tr.PEs || got.Len() != tr.Len() || got.Layout != tr.Layout {
			t.Fatalf("v%d header mismatch: %d/%d %+v", version, got.PEs, got.Len(), got.Layout)
		}
		for i := range tr.Refs {
			if got.Refs[i] != tr.Refs[i] {
				t.Fatalf("v%d ref %d: %+v != %+v", version, i, got.Refs[i], tr.Refs[i])
			}
		}
	}
}

// TestReaderSmallDst checks Next with a destination smaller than a
// chunk: the v3 pending buffer must deliver every ref exactly once.
func TestReaderSmallDst(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk + 77)
	for _, version := range []int{2, 3} {
		var buf bytes.Buffer
		if err := tr.WriteVersion(&buf, version); err != nil {
			t.Fatal(err)
		}
		d, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var got []Ref
		dst := make([]Ref, 100) // not a divisor of refsPerChunk
		for {
			n, err := d.Next(dst)
			got = append(got, dst[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("v%d Next: %v", version, err)
			}
		}
		if len(got) != tr.Len() {
			t.Fatalf("v%d delivered %d refs, want %d", version, len(got), tr.Len())
		}
		for i := range got {
			if got[i] != tr.Refs[i] {
				t.Fatalf("v%d ref %d: %+v != %+v", version, i, got[i], tr.Refs[i])
			}
		}
	}
}

// TestSkipTo pins the resume seek: skipping to an arbitrary position
// delivers exactly the suffix, skipped chunks are still CRC-verified,
// and rewinds or beyond-count targets are rejected.
func TestSkipTo(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk*2 + 50)
	raw := encodeTrace(t, tr)
	for _, target := range []uint64{0, 1, 100, refsPerChunk, refsPerChunk + 1, uint64(tr.Len()) - 1, uint64(tr.Len())} {
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
		dst := make([]Ref, 333)
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
		want := tr.Refs[target:]
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
	if err := d.SkipTo(10); err != nil {
		t.Fatal(err)
	}
	if err := d.SkipTo(5); err == nil || !strings.Contains(err.Error(), "rewind") {
		t.Errorf("rewind accepted: %v", err)
	}
	if err := d.SkipTo(uint64(tr.Len()) + 1); err == nil || !strings.Contains(err.Error(), "beyond") {
		t.Errorf("beyond-count skip accepted: %v", err)
	}
}

// TestSkipToDetectsCorruption: a resume seek must not glide over
// damage in the skipped region.
func TestSkipToDetectsCorruption(t *testing.T) {
	raw := encodeTrace(t, largeSyntheticTrace(refsPerChunk*2))
	bad := append([]byte(nil), raw...)
	bad[len(magicV3)+headerBytes+4+frameBytes+10] ^= 0x04 // inside chunk 0
	d, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	err = d.SkipTo(refsPerChunk + 5) // target inside chunk 1
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("SkipTo over corrupt chunk: %v, want checksum mismatch", err)
	}
}

// TestVerify pins the stream validator: a clean stream yields its
// summary, a corrupt one the same offset-labeled error a replay gets.
func TestVerify(t *testing.T) {
	tr := largeSyntheticTrace(refsPerChunk + 9)
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

	v2 := encodeTraceV2(t, tr)
	info, err = Verify(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("Verify v2 stream: %v", err)
	}
	if info.Version != 2 || info.Refs != uint64(tr.Len()) {
		t.Errorf("v2 VerifyInfo %+v", info)
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

// TestReplayStreamMatchesReplay pins the chunked streaming replay
// against the materialized replay on a real recorded workload.
func TestReplayStreamMatchesReplay(t *testing.T) {
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
	n, err := ReplayStream(d, ports2)
	if err != nil {
		t.Fatal(err)
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
