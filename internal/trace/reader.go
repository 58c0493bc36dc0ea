package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// Reader streams a serialized trace without materializing the whole
// reference slice, so multi-gigabyte streams replay in constant memory.
// It reads both on-disk versions (PIMTRACE2 flat, PIMTRACE3 checksummed
// chunks) and validates everything it decodes: the header's PE count
// and layout (and, for v3, its CRC), every chunk's frame and CRC32C,
// and every reference's PE, op and address (which must lie inside the
// header's layout), whose area class it fills in. A corrupt or torn
// stream yields a clean error labeled with the byte offset of the
// damage — never an out-of-range index inside the replay loop, and
// never a silently short stream: io.EOF from Next means every declared
// reference was delivered intact.
type Reader struct {
	r       io.Reader
	version int
	pes     int
	layout  mem.Layout
	bounds  mem.Bounds // layout's area map: classifies and range-checks refs
	n       uint64     // declared ref count
	read    uint64     // refs delivered so far
	off     int64      // bytes consumed from r
	chunks  uint64     // decode batches completed (v3: CRC-verified frames)
	buf     []byte     // raw chunk bytes (frame + payload for v3)
	pend    []Ref      // v3: decoded refs not yet delivered
	pendBuf []Ref      // backing array for pend, refsPerChunk capacity
	skipBuf []Ref      // lazily allocated by SkipTo

	progress func(n int) // optional decode-progress hook (see SetProgress)
}

// SetProgress installs a hook called after every decoded batch with the
// number of references just decoded. Streaming replays use it to feed a
// heartbeat (obs.Heartbeat.Add); a nil fn disables the hook.
func (d *Reader) SetProgress(fn func(n int)) { d.progress = fn }

// NewReader reads and validates the stream header, leaving r positioned
// at the first reference (v2) or chunk frame (v3).
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{r: r}
	got := make([]byte, magicLen)
	if err := d.fill(got); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch string(got) {
	case magicV2:
		d.version = 2
	case magicV3:
		d.version = 3
	default:
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	hdr := make([]byte, headerBytes)
	if err := d.fill(hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if d.version >= 3 {
		var crcb [4]byte
		if err := d.fill(crcb[:]); err != nil {
			return nil, fmt.Errorf("trace: reading header checksum: %w", err)
		}
		if got, want := crc32.Checksum(hdr, castagnoli), binary.LittleEndian.Uint32(crcb[:]); got != want {
			return nil, fmt.Errorf("trace: header checksum mismatch at byte offset %d (computed %#x, stored %#x)",
				magicLen, got, want)
		}
	}
	pes := int(binary.LittleEndian.Uint32(hdr[0:]))
	if pes < 1 || pes > bus.MaxPEs {
		return nil, fmt.Errorf("trace: header PE count %d outside [1, %d]", pes, bus.MaxPEs)
	}
	d.pes = pes
	d.layout = mem.Layout{
		InstWords: int(binary.LittleEndian.Uint32(hdr[4:])),
		HeapWords: int(binary.LittleEndian.Uint32(hdr[8:])),
		GoalWords: int(binary.LittleEndian.Uint32(hdr[12:])),
		SuspWords: int(binary.LittleEndian.Uint32(hdr[16:])),
		CommWords: int(binary.LittleEndian.Uint32(hdr[20:])),
	}
	d.bounds = d.layout.Bounds()
	end := uint64(d.bounds.InstBase)
	for off := 4; off <= 20; off += 4 {
		end += uint64(binary.LittleEndian.Uint32(hdr[off:]))
	}
	if end > math.MaxUint32 {
		// Addresses are 32 bits on disk; a layout wider than the address
		// space is corrupt (and would demand an absurd memory allocation
		// at replay time).
		return nil, fmt.Errorf("trace: header layout ends at word %d, beyond the 32-bit address space", end)
	}
	d.n = binary.LittleEndian.Uint64(hdr[24:])
	d.buf = make([]byte, frameBytes+refBytes*refsPerChunk)
	return d, nil
}

// fill is io.ReadFull with byte-offset accounting.
func (d *Reader) fill(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.off += int64(n)
	return err
}

// PEs reports the header's PE count.
func (d *Reader) PEs() int { return d.pes }

// Layout reports the header's memory layout.
func (d *Reader) Layout() mem.Layout { return d.layout }

// Version reports the stream's on-disk format version (2 or 3).
func (d *Reader) Version() int { return d.version }

// Offset reports the byte offset consumed from the underlying reader —
// the position error labels refer to.
func (d *Reader) Offset() int64 { return d.off }

// Chunks reports how many decode batches (v3: CRC-verified chunk
// frames) have completed.
func (d *Reader) Chunks() uint64 { return d.chunks }

// Replayed reports how many references have been delivered so far.
func (d *Reader) Replayed() uint64 { return d.read }

// Len reports the header's declared reference count. It is validated
// incrementally: a stream shorter than declared fails Next with a
// truncation error, so Len is trustworthy only once Next returned io.EOF.
func (d *Reader) Len() uint64 { return d.n }

// Next decodes up to len(dst) references into dst and returns how many
// were decoded. It returns io.EOF — possibly alongside the final
// references — once all declared references have been delivered; any
// earlier end of stream is an error. Errors are permanent: a Reader
// that returned one delivers no further references.
func (d *Reader) Next(dst []Ref) (int, error) {
	if d.read == d.n {
		return 0, io.EOF
	}
	if len(dst) == 0 {
		return 0, nil
	}
	var n int
	var err error
	if d.version == 2 {
		n, err = d.nextV2(dst)
	} else {
		n, err = d.nextV3(dst)
	}
	if err != nil {
		return n, err
	}
	d.read += uint64(n)
	if d.progress != nil && n > 0 {
		d.progress(n)
	}
	if d.read == d.n {
		return n, io.EOF
	}
	return n, nil
}

// nextV2 decodes up to one chunk of the flat v2 ref run directly into
// dst.
func (d *Reader) nextV2(dst []Ref) (int, error) {
	remaining := d.n - d.read
	n := len(dst)
	if uint64(n) > remaining {
		n = int(remaining)
	}
	if n > refsPerChunk {
		n = refsPerChunk
	}
	start := d.off
	chunk := d.buf[:n*refBytes]
	if err := d.fill(chunk); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// The shortfall position distinguishes a clean-but-short
			// stream (cut at a reference boundary) from a torn final
			// reference.
			got := d.off - start
			lost := got % refBytes
			if lost != 0 {
				return 0, fmt.Errorf("trace: torn final reference at byte offset %d (ref %d of %d cut after %d of %d bytes)",
					d.off-lost, d.read+uint64(got/refBytes), d.n, lost, refBytes)
			}
			return 0, fmt.Errorf("trace: stream truncated at byte offset %d (ref %d of %d)",
				d.off, d.read+uint64(got/refBytes), d.n)
		}
		return 0, err
	}
	if err := d.decodeRefs(chunk, dst[:n], start); err != nil {
		return 0, err
	}
	d.chunks++
	return n, nil
}

// nextV3 delivers pending decoded references, reading and verifying
// the next chunk frame when none are pending. When dst can hold the
// whole chunk it is decoded straight into dst (the streaming-replay
// fast path copies nothing twice).
func (d *Reader) nextV3(dst []Ref) (int, error) {
	if len(d.pend) > 0 {
		n := copy(dst, d.pend)
		d.pend = d.pend[n:]
		return n, nil
	}
	frameOff := d.off
	frame := d.buf[:frameBytes]
	if err := d.fill(frame); err != nil {
		if err == io.EOF {
			return 0, fmt.Errorf("trace: stream truncated at byte offset %d: %d of %d refs delivered, next chunk missing",
				d.off, d.read, d.n)
		}
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("trace: torn chunk frame at byte offset %d (ref %d of %d)", frameOff, d.read, d.n)
		}
		return 0, err
	}
	plen := binary.LittleEndian.Uint32(frame[0:])
	wantCRC := binary.LittleEndian.Uint32(frame[4:])
	remaining := d.n - d.read
	switch {
	case plen == 0 || plen%refBytes != 0 || plen > refBytes*refsPerChunk:
		return 0, fmt.Errorf("trace: corrupt chunk frame at byte offset %d: payload length %d", frameOff, plen)
	case uint64(plen/refBytes) > remaining:
		return 0, fmt.Errorf("trace: corrupt chunk frame at byte offset %d: %d refs in chunk, %d remaining in stream",
			frameOff, plen/refBytes, remaining)
	}
	payloadOff := d.off
	payload := d.buf[frameBytes : frameBytes+int(plen)]
	if err := d.fill(payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("trace: torn chunk at byte offset %d (ref %d of %d: %d of %d payload bytes)",
				payloadOff, d.read, d.n, d.off-payloadOff, plen)
		}
		return 0, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return 0, fmt.Errorf("trace: chunk checksum mismatch at byte offset %d (refs %d..%d of %d: computed %#x, stored %#x)",
			payloadOff, d.read, d.read+uint64(plen/refBytes)-1, d.n, got, wantCRC)
	}
	k := int(plen) / refBytes
	if len(dst) >= k {
		if err := d.decodeRefs(payload, dst[:k], payloadOff); err != nil {
			return 0, err
		}
		d.chunks++
		return k, nil
	}
	if d.pendBuf == nil {
		d.pendBuf = make([]Ref, refsPerChunk)
	}
	if err := d.decodeRefs(payload, d.pendBuf[:k], payloadOff); err != nil {
		return 0, err
	}
	d.chunks++
	n := copy(dst, d.pendBuf[:k])
	d.pend = d.pendBuf[n:k]
	return n, nil
}

// decodeRefs decodes raw (a whole number of 6-byte refs) into dst,
// validating each reference's PE, op and address and classifying its
// area under the header's layout. byteOff is raw's position in the
// stream, for error labels.
func (d *Reader) decodeRefs(raw []byte, dst []Ref, byteOff int64) error {
	// Locals, so the loop does not reload them after every store to dst.
	pes, bounds := d.pes, d.bounds
	for j := range dst {
		b := raw[j*refBytes : j*refBytes+refBytes]
		a := word.Addr(binary.LittleEndian.Uint32(b[2:6]))
		if int(b[0]) >= pes || cache.Op(b[1]) >= cache.NumOps || a >= bounds.End {
			return d.refError(b, d.read+uint64(j), byteOff+int64(j*refBytes))
		}
		dst[j] = Ref{PE: b[0], Op: cache.Op(b[1]), Area: bounds.AreaOf(a), Addr: a}
	}
	return nil
}

// refError labels the first invalid field of the raw reference b, the
// stream's ref-th reference at byte offset off.
func (d *Reader) refError(b []byte, ref uint64, off int64) error {
	a := word.Addr(binary.LittleEndian.Uint32(b[2:6]))
	switch {
	case int(b[0]) >= d.pes:
		return fmt.Errorf("trace: ref %d (byte offset %d): PE %d out of range (trace has %d PEs)", ref, off, b[0], d.pes)
	case cache.Op(b[1]) >= cache.NumOps:
		return fmt.Errorf("trace: ref %d (byte offset %d): unknown op %d", ref, off, b[1])
	}
	return fmt.Errorf("trace: ref %d (byte offset %d): address %#x outside the header layout (ends at %#x)",
		ref, off, a, d.bounds.End)
}

// SkipTo advances the reader so the next delivered reference is the
// one at absolute index target — the checkpoint-resume seek. Skipped
// references are fully decoded and validated (chunk CRCs included), so
// a resume never glides over damage the uninterrupted run would have
// caught. The reader cannot rewind.
func (d *Reader) SkipTo(target uint64) error {
	if target < d.read {
		return fmt.Errorf("trace: cannot rewind from ref %d to %d", d.read, target)
	}
	if target > d.n {
		return fmt.Errorf("trace: skip target %d beyond declared count %d", target, d.n)
	}
	if d.skipBuf == nil {
		d.skipBuf = make([]Ref, refsPerChunk)
	}
	for d.read < target {
		want := target - d.read
		if want > refsPerChunk {
			want = refsPerChunk
		}
		_, err := d.Next(d.skipBuf[:want])
		if err == io.EOF {
			break // d.read == d.n == target
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ReplayStream replays every remaining reference of d through ports in
// chunks, never materializing the full stream. It returns the number of
// references replayed. Ports must be the caches of a machine built with
// the stream's PE count and layout (d.PEs(), d.Layout()), as in Replay.
func ReplayStream(d *Reader, ports []mem.Accessor) (int, error) {
	cr, err := NewChunkReplayer(d.pes, ports)
	if err != nil {
		return 0, err
	}
	buf := make([]Ref, refsPerChunk)
	total := 0
	for {
		n, err := d.Next(buf)
		if n > 0 {
			if rerr := cr.Replay(buf[:n], total); rerr != nil {
				return total, rerr
			}
			total += n
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// VerifyInfo summarizes a verified artifact stream.
type VerifyInfo struct {
	Version int    // on-disk format version
	PEs     int    // header PE count
	Refs    uint64 // references decoded and validated
	Chunks  uint64 // decode batches (v3: CRC-verified frames)
	Bytes   int64  // bytes consumed
}

// Verify stream-validates a serialized trace end to end — header
// (and its v3 CRC), chunk framing, chunk checksums, and every
// reference's PE, op and address — without building a machine or
// replaying.
// The first damage fails with the same byte-offset-labeled error a
// replay would produce.
func Verify(r io.Reader) (*VerifyInfo, error) {
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	buf := make([]Ref, refsPerChunk)
	for {
		_, err := d.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return &VerifyInfo{
		Version: d.version,
		PEs:     d.pes,
		Refs:    d.read,
		Chunks:  d.chunks,
		Bytes:   d.off,
	}, nil
}
