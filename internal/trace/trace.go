// Package trace records and replays simulated memory-reference streams.
//
// The KL1 emulator's reference stream — (PE, operation, address) triples
// in global execution order — does not depend on the cache configuration:
// the machine interleaves PEs round-robin regardless of hits and misses,
// and lock conflicts depend only on the lock directories. A stream
// recorded once per workload can therefore be replayed against many cache
// organizations, which is how the block-size, capacity and optimization
// experiments (Figures 1-2, Table 4) run a whole parameter sweep from a
// single emulation. This is classic trace-driven cache simulation, with
// the trace produced by our own execution-driven front end.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// Ref is one recorded memory reference. Area is the address's storage
// area under the trace's layout. It depends only on Addr and the layout,
// so every producer (Recorder, the decoder, synth) classifies it once and
// each of the many replays of a sweep reuses it; it occupies the struct's
// padding byte and is not stored on disk.
type Ref struct {
	PE   uint8
	Op   cache.Op
	Area mem.Area
	Addr word.Addr
}

// Trace is a recorded reference stream. Layout records the memory-area
// geometry the stream was produced under: replays must use the same
// layout or the per-area optimized-command masks would misclassify
// addresses.
type Trace struct {
	PEs    int
	Layout mem.Layout
	Refs   []Ref
}

// Len reports the number of references.
func (t *Trace) Len() int { return len(t.Refs) }

// Recorder collects references from all PEs of one machine in global
// order. Wrap each PE's port with Port before running the workload.
type Recorder struct {
	trace  Trace
	bounds mem.Bounds
}

// NewRecorder makes a recorder for a machine with pes processors and the
// given memory layout.
func NewRecorder(pes int, layout mem.Layout) *Recorder {
	return NewRecorderHint(pes, layout, 0)
}

// NewRecorderHint is NewRecorder with a capacity hint: the ref store is
// preallocated for about refsHint references, so recording a stream of
// roughly known length (the harness knows its benchmarks' sizes) does not
// repeatedly regrow and copy a multi-hundred-megabyte backing array. A
// hint of zero (or a low hint) is safe — the store still grows on demand.
func NewRecorderHint(pes int, layout mem.Layout, refsHint int) *Recorder {
	r := &Recorder{trace: Trace{PEs: pes, Layout: layout}, bounds: layout.Bounds()}
	if refsHint > 0 {
		r.trace.Refs = make([]Ref, 0, refsHint)
	}
	return r
}

// Trace returns the recorded stream.
func (r *Recorder) Trace() *Trace { return &r.trace }

// Port wraps a PE's accessor so every successful operation is recorded
// before being forwarded. Blocked LockReads are not recorded: the
// eventual successful retry is the reference that matters for replay.
func (r *Recorder) Port(pe int, inner mem.Accessor) mem.Accessor {
	return &recordingPort{rec: r, pe: uint8(pe), inner: inner}
}

type recordingPort struct {
	rec   *Recorder
	pe    uint8
	inner mem.Accessor
}

func (p *recordingPort) add(op cache.Op, a word.Addr) {
	p.rec.trace.Refs = append(p.rec.trace.Refs, Ref{PE: p.pe, Op: op, Area: p.rec.bounds.AreaOf(a), Addr: a})
}

func (p *recordingPort) Read(a word.Addr) word.Word {
	p.add(cache.OpR, a)
	return p.inner.Read(a)
}

func (p *recordingPort) Write(a word.Addr, w word.Word) {
	p.add(cache.OpW, a)
	p.inner.Write(a, w)
}

func (p *recordingPort) LockRead(a word.Addr) (word.Word, bool) {
	w, ok := p.inner.LockRead(a)
	if ok {
		p.add(cache.OpLR, a)
	}
	return w, ok
}

func (p *recordingPort) UnlockWrite(a word.Addr, w word.Word) {
	p.add(cache.OpUW, a)
	p.inner.UnlockWrite(a, w)
}

func (p *recordingPort) Unlock(a word.Addr) {
	p.add(cache.OpU, a)
	p.inner.Unlock(a)
}

func (p *recordingPort) DirectWrite(a word.Addr, w word.Word) {
	p.add(cache.OpDW, a)
	p.inner.DirectWrite(a, w)
}

func (p *recordingPort) ExclusiveRead(a word.Addr) word.Word {
	p.add(cache.OpER, a)
	return p.inner.ExclusiveRead(a)
}

func (p *recordingPort) ReadPurge(a word.Addr) word.Word {
	p.add(cache.OpRP, a)
	return p.inner.ReadPurge(a)
}

func (p *recordingPort) ReadInvalidate(a word.Addr) word.Word {
	p.add(cache.OpRI, a)
	return p.inner.ReadInvalidate(a)
}

// LockRead ordering note: a recorded LR always precedes its matching
// UW/U, and conflicting LRs were serialized by the live run, so replaying
// in order never blocks.

// Replay drives a trace through the caches of a machine (one port per
// PE, each a *cache.Cache). It returns an error if a lock operation
// blocks, which would indicate the trace is not a legal serialized
// stream.
func Replay(t *Trace, ports []mem.Accessor) error {
	return ReplayRange(t, ports, 0, len(t.Refs))
}

// ReplayRange replays the half-open reference range [lo, hi). It is the
// checkpoint-resume and shard entry point: a resumer restores a machine
// snapshot taken after k references and continues with ReplayRange(t,
// ports, k, t.Len()); the sharded replayer feeds each worker its own
// partition. Reported ref indices in errors are absolute trace positions.
func ReplayRange(t *Trace, ports []mem.Accessor, lo, hi int) error {
	if lo < 0 || hi > len(t.Refs) || lo > hi {
		return fmt.Errorf("trace: range [%d, %d) outside trace of %d refs", lo, hi, len(t.Refs))
	}
	cr, err := NewChunkReplayer(t.PEs, ports)
	if err != nil {
		return err
	}
	return cr.Replay(t.Refs[lo:hi], lo)
}

// ChunkReplayer drives reference chunks through a fixed set of caches.
// Its Replay loop is the simulator's one per-reference dispatch: every
// replay path — in-memory, streamed, resumed, warmed, sharded and
// probed — sends each reference through cache.Apply with the area class
// its producer computed.
type ChunkReplayer struct {
	caches []*cache.Cache
}

// NewChunkReplayer prepares a replayer for a stream with the given PE
// count over ports (at least pes of them). Every port must be a
// *cache.Cache, as machine.Port returns.
func NewChunkReplayer(pes int, ports []mem.Accessor) (*ChunkReplayer, error) {
	if len(ports) < pes {
		return nil, fmt.Errorf("trace: need %d ports, have %d", pes, len(ports))
	}
	caches := make([]*cache.Cache, pes)
	for i := range caches {
		c, ok := ports[i].(*cache.Cache)
		if !ok {
			return nil, fmt.Errorf("trace: port %d is a %T; replay drives caches only", i, ports[i])
		}
		caches[i] = c
	}
	return &ChunkReplayer{caches: caches}, nil
}

// Replay replays one chunk; base is the absolute trace index of
// refs[0], used in error labels.
func (cr *ChunkReplayer) Replay(refs []Ref, base int) error {
	for i := range refs {
		r := &refs[i]
		if !cr.caches[r.PE].Apply(r.Op, r.Addr, r.Area) {
			return fmt.Errorf("trace: ref %d: LR %#x blocked during replay", base+i, r.Addr)
		}
	}
	return nil
}

// --- serialization ---

// The on-disk trace format is versioned by its magic string:
//
//	PIMTRACE2: magic, 32-byte header, then a flat run of 6-byte refs.
//	           No checksums — a flipped bit in an address is invisible.
//	PIMTRACE3: magic, 32-byte header, 4-byte CRC32C of the header, then
//	           CRC32C-framed chunks: each chunk is an 8-byte frame
//	           (payload length, payload CRC32C) followed by up to
//	           refsPerChunk refs of payload. Any torn tail, flipped bit
//	           or mangled frame is detected with a byte-offset-labeled
//	           error before a single corrupt reference reaches a replay.
//
// Write produces version 3; Read/NewReader accept both.
const (
	magicV2 = "PIMTRACE2\n"
	magicV3 = "PIMTRACE3\n"
	// magicLen is shared by both versions (and by checkpoints' sniffing).
	magicLen = len(magicV3)
)

// FormatVersion is the trace format Write produces.
const FormatVersion = 3

// refBytes is the on-disk size of one reference: PE, op, and four
// little-endian address bytes.
const refBytes = 6

// refsPerChunk sizes the serialization buffers and the v3 chunk
// framing: one Write/Read syscall moves up to this many references,
// and one CRC covers at most this much payload.
const refsPerChunk = 4096

// frameBytes is the v3 per-chunk frame: u32 payload length, u32
// CRC32C of the payload.
const frameBytes = 8

// headerBytes is the fixed header after the magic (PE count, layout,
// ref count).
const headerBytes = 32

// castagnoli is the CRC32C polynomial table — hardware-accelerated on
// the platforms the replay host runs on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// addrEncodable reports whether a fits in the four address bytes of the
// on-disk ref format. word.Addr is currently 32 bits wide, so every value
// fits, but the check goes through uint64 so that widening the address
// type can never silently truncate traces on disk.
func addrEncodable(a uint64) bool { return a <= 0xFFFFFFFF }

// header assembles the fixed 32-byte header shared by both versions.
func (t *Trace) header() []byte {
	hdr := make([]byte, headerBytes)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(t.PEs))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.Layout.InstWords))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.Layout.HeapWords))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(t.Layout.GoalWords))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(t.Layout.SuspWords))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(t.Layout.CommWords))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(t.Refs)))
	return hdr
}

// encodeRef appends one reference's 6 on-disk bytes to buf.
func encodeRef(buf []byte, ref *Ref) []byte {
	return append(buf, ref.PE, uint8(ref.Op),
		byte(ref.Addr), byte(ref.Addr>>8), byte(ref.Addr>>16), byte(ref.Addr>>24))
}

// Write serializes the trace in the current format (version 3:
// checksummed chunk framing). It fails — rather than corrupt the
// stream — if any address exceeds the 32-bit on-disk format.
func (t *Trace) Write(w io.Writer) error {
	return t.WriteVersion(w, FormatVersion)
}

// WriteVersion serializes the trace in an explicit format version.
// Version 2 exists for compatibility tests and for producing streams
// older builds can read; everything else should use Write.
func (t *Trace) WriteVersion(w io.Writer, version int) error {
	switch version {
	case 2:
		return t.writeV2(w)
	case 3:
		return t.writeV3(w)
	}
	return fmt.Errorf("trace: unknown format version %d", version)
}

func (t *Trace) writeV2(w io.Writer) error {
	if _, err := io.WriteString(w, magicV2); err != nil {
		return err
	}
	if _, err := w.Write(t.header()); err != nil {
		return err
	}
	buf := make([]byte, 0, refBytes*refsPerChunk)
	for i := range t.Refs {
		ref := &t.Refs[i]
		if !addrEncodable(uint64(ref.Addr)) {
			return fmt.Errorf("trace: ref %d: address %#x exceeds the 32-bit on-disk format", i, uint64(ref.Addr))
		}
		buf = encodeRef(buf, ref)
		if len(buf) == cap(buf) || i == len(t.Refs)-1 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

func (t *Trace) writeV3(w io.Writer) error {
	if _, err := io.WriteString(w, magicV3); err != nil {
		return err
	}
	hdr := t.header()
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.Checksum(hdr, castagnoli))
	if _, err := w.Write(crcb[:]); err != nil {
		return err
	}
	// Each chunk is framed and written in one call: frame header in
	// buf[:frameBytes], payload after it.
	buf := make([]byte, frameBytes, frameBytes+refBytes*refsPerChunk)
	for i := 0; i < len(t.Refs); {
		k := len(t.Refs) - i
		if k > refsPerChunk {
			k = refsPerChunk
		}
		buf = buf[:frameBytes]
		for j := i; j < i+k; j++ {
			ref := &t.Refs[j]
			if !addrEncodable(uint64(ref.Addr)) {
				return fmt.Errorf("trace: ref %d: address %#x exceeds the 32-bit on-disk format", j, uint64(ref.Addr))
			}
			buf = encodeRef(buf, ref)
		}
		payload := buf[frameBytes:]
		binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		i += k
	}
	return nil
}

// maxPrealloc caps the []Ref capacity Read allocates up front from the
// header's declared ref count. The count is untrusted input: a corrupt
// header must not be able to demand an arbitrary allocation. Beyond the
// cap the slice grows only as fast as actual stream data arrives, so a
// short corrupt stream fails with a clean truncation error instead of an
// out-of-memory abort.
const maxPrealloc = 1 << 20

// Read deserializes a trace written by Write, validating the header and
// every reference (see NewReader). For streams too large to materialize,
// use NewReader with Next or ReplayStream instead.
func Read(r io.Reader) (*Trace, error) {
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	capHint := d.Len()
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	t := &Trace{PEs: d.PEs(), Layout: d.Layout(), Refs: make([]Ref, 0, capHint)}
	buf := make([]Ref, refsPerChunk)
	for {
		n, err := d.Next(buf)
		t.Refs = append(t.Refs, buf[:n]...)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
