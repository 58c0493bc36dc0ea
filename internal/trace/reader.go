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
// It reads the checksummed PIMTRACE3 format and validates everything it
// decodes: the header's CRC, PE count and layout, every chunk's frame
// and CRC32C, and every reference's PE, op and address (which must lie
// inside the header's layout), whose area class it fills in. A corrupt
// or torn stream yields a clean error labeled with the byte offset of
// the damage — never an out-of-range index inside the replay loop, and
// never a silently short or long stream: io.EOF from Next means every
// declared reference was delivered intact and the stream ended there.
//
// The chunk is the reader's unit: Next decodes one whole chunk into a
// destination with room for ChunkRefs references, and SkipTo seeks only
// to a chunk boundary — a multiple of ChunkRefs, where every writer ends
// a chunk, or the end of the stream.
type Reader struct {
	r      io.Reader
	pes    int
	layout mem.Layout
	bounds mem.Bounds // layout's area map: classifies and range-checks refs
	n      uint64     // declared ref count
	read   uint64     // refs delivered so far
	off    int64      // bytes consumed from r
	chunks uint64     // CRC-verified chunk frames decoded
	chain  uint32     // CRC32C chained over the chunk checksums read so far
	buf    []byte     // raw chunk bytes: frame + payload

	progress func(n int) // optional decode-progress hook (see SetProgress)
}

// SetProgress installs a hook called after every decoded chunk with the
// number of references just decoded. Streaming replays use it to feed a
// heartbeat (obs.Heartbeat.Add, and SetBytes from Offset); a nil fn
// disables the hook. The hook runs on the goroutine that calls Next, so
// it may read the Reader. Under bench.ReplayReaderResumable that is the
// decoder goroutine, which runs ahead of and concurrently with the
// replay, so anything else the hook touches must be safe for concurrent
// use (atomics such as obs.Counter).
func (d *Reader) SetProgress(fn func(n int)) { d.progress = fn }

// NewReader reads and validates the stream header, leaving r positioned
// at the first chunk frame.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{r: r}
	got := make([]byte, magicLen)
	if err := d.fill(got); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(got) != magicV3 {
		return nil, fmt.Errorf("trace: bad magic %q", got)
	}
	hdr := make([]byte, headerBytes)
	if err := d.fill(hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	var crcb [4]byte
	if err := d.fill(crcb[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header checksum: %w", err)
	}
	if got, want := crc32.Checksum(hdr, castagnoli), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return nil, fmt.Errorf("trace: header checksum mismatch at byte offset %d (computed %#x, stored %#x)",
			magicLen, got, want)
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
	if d.n == 0 {
		// The header CRC is the last declared byte.
		if err := d.checkEnd(); err != nil {
			return nil, err
		}
	}
	d.buf = make([]byte, frameBytes+refBytes*ChunkRefs)
	return d, nil
}

// checkEnd requires the stream to end at the last declared byte, just
// consumed: bytes after it (two traces concatenated, say) would otherwise
// be ignored by the replay yet hashed into a manifest's trace digest only
// as far as read-ahead happened to pull them in.
func (d *Reader) checkEnd() error {
	var b [1]byte
	switch err := d.fill(b[:]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("trace: trailing data at byte offset %d after the last declared chunk (%d refs)", d.off-1, d.n)
	default:
		return err
	}
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

// Offset reports the byte offset consumed from the underlying reader —
// the position error labels refer to.
func (d *Reader) Offset() int64 { return d.off }

// Chain reports the CRC32C chained over the stored checksums of every
// chunk read so far, in order: with the header, it identifies the trace
// up to the current position at O(1) cost per chunk. A checkpoint
// records it so a resume can refuse a different trace.
func (d *Reader) Chain() uint32 { return d.chain }

// Replayed reports how many references have been delivered so far.
func (d *Reader) Replayed() uint64 { return d.read }

// Len reports the header's declared reference count. It is validated
// incrementally: a stream shorter than declared fails Next with a
// truncation error, so Len is trustworthy only once Next returned io.EOF.
func (d *Reader) Len() uint64 { return d.n }

// Next decodes the next chunk into dst, which must have room for
// ChunkRefs references, and returns how many it decoded. It returns
// io.EOF — possibly alongside the final chunk — once all declared
// references have been delivered and the stream ends there; any earlier
// end of stream is an error, and so are bytes after the last declared
// chunk (returned alongside the final chunk). A dst shorter than a chunk
// is refused before anything is read; after any other error the stream
// position is past the damage, so the caller must stop reading.
func (d *Reader) Next(dst []Ref) (int, error) {
	if len(dst) < ChunkRefs {
		return 0, fmt.Errorf("trace: Next needs room for a whole chunk (%d refs), got %d", ChunkRefs, len(dst))
	}
	if d.read == d.n {
		return 0, io.EOF
	}
	n, err := d.nextChunk(dst)
	if err != nil {
		return 0, err
	}
	d.read += uint64(n)
	if d.progress != nil {
		d.progress(n)
	}
	if d.read == d.n {
		if err := d.checkEnd(); err != nil {
			return n, err
		}
		return n, io.EOF
	}
	return n, nil
}

// nextChunk reads and verifies the next chunk frame and decodes its
// references straight into dst.
func (d *Reader) nextChunk(dst []Ref) (int, error) {
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
	case plen == 0 || plen%refBytes != 0 || plen > refBytes*ChunkRefs:
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
	d.chain = crc32.Update(d.chain, castagnoli, frame[4:8])
	k := int(plen) / refBytes
	if err := d.decodeRefs(payload, dst[:k], payloadOff); err != nil {
		return 0, err
	}
	d.chunks++
	return k, nil
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
		dst[j] = MakeRef(b[0], cache.Op(b[1]), bounds.AreaOf(a), a)
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
// one at absolute index target — the checkpoint-resume seek. The target
// must be a chunk boundary (a multiple of ChunkRefs, or the end of the
// stream), as every checkpoint's position is; any other is refused
// before anything is read. Skipped chunks are fully decoded and
// validated (their CRCs included), so a resume never glides over damage
// the uninterrupted run would have caught. The reader cannot rewind.
func (d *Reader) SkipTo(target uint64) error {
	switch {
	case target < d.read:
		return fmt.Errorf("trace: cannot rewind from ref %d to %d", d.read, target)
	case target > d.n:
		return fmt.Errorf("trace: skip target %d beyond declared count %d", target, d.n)
	case target%ChunkRefs != 0 && target != d.n:
		return fmt.Errorf("trace: skip target %d is not a chunk boundary (a multiple of %d, or the stream's end at %d)",
			target, ChunkRefs, d.n)
	}
	buf := make([]Ref, ChunkRefs)
	for d.read < target {
		if _, err := d.Next(buf); err != nil && err != io.EOF {
			return err
		}
	}
	if d.read != target {
		return fmt.Errorf("trace: skip target %d falls inside a chunk ending at ref %d", target, d.read)
	}
	return nil
}

// VerifyInfo summarizes a verified artifact stream.
type VerifyInfo struct {
	Version int    // on-disk format version (FormatVersion)
	PEs     int    // header PE count
	Refs    uint64 // references decoded and validated
	Chunks  uint64 // CRC-verified chunk frames
	Bytes   int64  // bytes consumed
}

// Verify stream-validates a serialized trace end to end — header
// and its CRC, chunk framing, chunk checksums, every reference's PE,
// op and address, and the end of the stream at the last declared
// chunk — without building a machine or replaying.
// The first damage fails with the same byte-offset-labeled error a
// replay would produce.
func Verify(r io.Reader) (*VerifyInfo, error) {
	d, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	buf := make([]Ref, ChunkRefs)
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
		Version: FormatVersion,
		PEs:     d.pes,
		Refs:    d.read,
		Chunks:  d.chunks,
		Bytes:   d.off,
	}, nil
}
