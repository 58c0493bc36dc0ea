package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// FuzzReader feeds arbitrary bytes to NewReader, SkipTo and Next. With
// reframe set, the input is read as a header (PE count and five layout
// sizes, 24 bytes) followed by raw 6-byte references, and serialized by
// Trace.Write, so the stream carries valid chunk frames and CRCs and
// the fuzzer reaches the per-reference validation behind them (a Ref
// keeps the op byte's low nibble, so ops 9-15 stand for every unknown
// op there). skip is
// the number of whole chunks SkipTo passes (a seek lands only on a chunk
// boundary, at most the stream's end), and dst adds to the chunk of room
// Next decodes into.
//
// Properties: no panic; every error is labeled "trace:"; every
// delivered reference has an in-range PE and op, an address inside the
// header's layout, and that address's area; and io.EOF arrives only
// once exactly Len() references were skipped or delivered.
func FuzzReader(f *testing.F) {
	cfg := synth.DefaultConfig()
	cfg.Layout = mem.Layout{InstWords: 64, HeapWords: 4096, GoalWords: 1024, SuspWords: 256, CommWords: 256}
	cfg.PEs, cfg.Events = 4, 300
	var buf bytes.Buffer
	if err := synth.ORParallel(cfg).Write(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw, false, uint16(0), uint8(0))
	f.Add(raw, false, uint16(200), uint8(3))
	f.Add(raw[:len(raw)/2], false, uint16(0), uint8(255))
	for _, off := range []int{5, 20, 45, 60, len(raw) - 3} {
		flipped := bytes.Clone(raw)
		flipped[off] ^= 0x10
		f.Add(flipped, false, uint16(0), uint8(0))
	}
	// The reframe seed: the header fields, then the first references.
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(cfg.PEs))
	for _, w := range []int{cfg.Layout.InstWords, cfg.Layout.HeapWords, cfg.Layout.GoalWords, cfg.Layout.SuspWords, cfg.Layout.CommWords} {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(w))
	}
	const firstRef = 10 + 32 + 4 + 8 // magic, header, header CRC, chunk frame
	f.Add(append(hdr, raw[firstRef:firstRef+600]...), true, uint16(7), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, reframe bool, skip uint16, dst uint8) {
		if reframe {
			data = reframed(t, data)
		}
		d, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			checkLabeled(t, "NewReader", err)
			return
		}
		bounds := d.Layout().Bounds()
		got := min(uint64(skip)*trace.ChunkRefs, d.Len())
		if err := d.SkipTo(got); err != nil {
			checkLabeled(t, "SkipTo", err)
			return
		}
		refs := make([]trace.Ref, trace.ChunkRefs+int(dst))
		for {
			n, err := d.Next(refs)
			for _, r := range refs[:n] {
				if int(r.PE()) >= d.PEs() || r.Op() >= cache.NumOps || r.Addr() >= bounds.End || r.Area() != bounds.AreaOf(r.Addr()) {
					t.Fatalf("ref %d delivered out of range: %v (PEs %d, layout ends at %#x)", got, r, d.PEs(), bounds.End)
				}
				got++
			}
			if errors.Is(err, io.EOF) {
				if got != d.Len() {
					t.Fatalf("io.EOF after %d refs, header declares %d", got, d.Len())
				}
				return
			}
			if err != nil {
				checkLabeled(t, "Next", err)
				return
			}
			if n == 0 {
				t.Fatalf("Next returned no refs and no error at ref %d of %d", got, d.Len())
			}
		}
	})
}

// reframed serializes data as a trace: 24 header bytes (PE count, then
// the five layout sizes) and raw 6-byte references, which Trace.Write
// frames and checksums without validating them.
func reframed(t *testing.T, data []byte) []byte {
	var h [24]byte
	copy(h[:], data)
	field := func(i int) int { return int(binary.LittleEndian.Uint32(h[4*i:])) }
	var refs []trace.Ref
	if len(data) > len(h) {
		for p := data[len(h):]; len(p) >= 6; p = p[6:] {
			refs = append(refs, trace.MakeRef(p[0], cache.Op(p[1]), mem.AreaNone, word.Addr(binary.LittleEndian.Uint32(p[2:6]))))
		}
	}
	tr := trace.New(field(0), mem.Layout{
		InstWords: field(1), HeapWords: field(2), GoalWords: field(3), SuspWords: field(4), CommWords: field(5),
	}, refs)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func checkLabeled(t *testing.T, call string, err error) {
	t.Helper()
	if !strings.HasPrefix(err.Error(), "trace:") {
		t.Fatalf("%s error not labeled \"trace:\": %v", call, err)
	}
}
