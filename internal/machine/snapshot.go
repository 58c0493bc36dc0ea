package machine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/mem"
	"pimcache/internal/safeio"
)

// Snapshot is a checkpoint of a stats-only trace replay: the machine's
// configuration, the replay position, the bus state (statistics and
// probe clock), every cache's planes, lock directory and statistics, and
// the identity of the trace being replayed. It holds no data value: a
// replay never reads one (DESIGN §11), so only a stats-only machine
// takes or restores a checkpoint. The bus presence and lock filters are
// derived from the caches and rebuilt on restore, so no checkpoint
// stores them. Restoring a snapshot into a machine of the same
// configuration and then continuing the replay produces bit-identical
// statistics and probe event streams to the uninterrupted run — the
// property TestCheckpointResume pins and resumable replay
// (bench.ReplayReaderResumable) relies on.
//
// gob matches fields by name and skips the ones it does not know, so a
// checkpoint that older builds wrote with memory and cache-data images,
// step and round counts still decodes (those are dropped), and one
// written here decodes in those builds.
type Snapshot struct {
	// Config identifies the machine shape the snapshot was taken from;
	// Restore refuses a mismatch rather than silently misinterpreting
	// plane geometry.
	Config Config
	// RefsReplayed records how many references of the source trace had
	// been replayed at the checkpoint: the chunk boundary a resume
	// continues from.
	RefsReplayed int
	Bus          *bus.Snapshot
	Caches       []*cache.Snapshot
	// Trace identifies the trace the checkpoint was taken from, at
	// RefsReplayed, so a resume can refuse a different trace (and a
	// checkpoint that names none).
	Trace *TraceIdentity
}

// TraceIdentity identifies a serialized trace at a stream position: its
// header (PE count, layout, declared reference count) and the CRC32C
// chained over the stored checksums of the chunks read up to that
// position (trace.Reader.Chain).
type TraceIdentity struct {
	PEs    int
	Layout mem.Layout
	Refs   uint64
	Chain  uint32
}

// At returns the identity of the same header at the position whose
// chunk chain is chain.
func (id TraceIdentity) At(chain uint32) *TraceIdentity {
	id.Chain = chain
	return &id
}

func (id TraceIdentity) String() string {
	return fmt.Sprintf("%d PEs, %d layout words, %d refs, chunk chain %08x",
		id.PEs, id.Layout.TotalWords(), id.Refs, id.Chain)
}

// Checkpoint captures the simulated state of a stats-only machine.
func (m *Machine) Checkpoint() *Snapshot {
	s := &Snapshot{
		Config: m.cfg,
		Bus:    m.bus.Snapshot(),
		Caches: make([]*cache.Snapshot, len(m.caches)),
	}
	for i, c := range m.caches {
		s.Caches[i] = c.Snapshot()
	}
	return s
}

// Restore overwrites a stats-only machine's simulated state from a
// snapshot taken on a machine of the same configuration; a data-carrying
// machine is refused, since a snapshot holds no data image. Probe sinks
// and attached processors are wiring, not simulated state, and are left
// as they are.
//
// Restore checks the snapshot's structure (its sections, and each
// cache's planes and lock entries), not the protocol invariants:
// honest replays can break those (see CheckInvariants), and their
// checkpoints must stay resumable.
func (m *Machine) Restore(s *Snapshot) error {
	if !m.cfg.Cache.StatsOnly {
		return errDataCarrying
	}
	if s.Config != m.cfg {
		return fmt.Errorf("machine: snapshot config %+v does not match machine %+v", s.Config, m.cfg)
	}
	if err := s.checkSections(len(m.caches)); err != nil {
		return err
	}
	m.bus.Restore(s.Bus)
	for i, c := range m.caches {
		if err := c.Restore(s.Caches[i]); err != nil {
			return fmt.Errorf("machine: PE %d: %w", i, err)
		}
	}
	return nil
}

// errDataCarrying refuses a checkpoint for a data-carrying machine.
var errDataCarrying = errors.New("machine: a checkpoint holds no data image and restores only into a stats-only machine")

// checkSections refuses a snapshot that lacks a section a machine of
// pes PEs restores from. (gob cannot encode a nil cache section, so a
// decoded snapshot never has one.)
func (s *Snapshot) checkSections(pes int) error {
	if s.Bus == nil {
		return fmt.Errorf("machine: snapshot has no bus section")
	}
	if len(s.Caches) != pes {
		return fmt.Errorf("machine: snapshot has %d caches, machine has %d", len(s.Caches), pes)
	}
	return nil
}

// Verify checks s the way a resume does: it restores s into a stats-only
// machine built from the configuration s records. A data-carrying
// configuration is refused first, then the configuration is validated,
// and every cache section must have the plane lengths it implies, so a
// forged geometry cannot make Verify build a cache larger than the
// snapshot's own planes.
func (s *Snapshot) Verify() error {
	cfg := s.Config
	if !cfg.Cache.StatsOnly {
		return errDataCarrying
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := s.checkSections(cfg.PEs); err != nil {
		return err
	}
	frames := cfg.Cache.SizeWords / cfg.Cache.BlockWords
	for i, c := range s.Caches {
		if len(c.States) != frames || len(c.Locks) != cfg.Cache.LockEntries {
			return fmt.Errorf("machine: PE %d: snapshot has %d frames and %d lock entries, its configuration %d and %d",
				i, len(c.States), len(c.Locks), frames, cfg.Cache.LockEntries)
		}
	}
	return New(cfg).Restore(s)
}

// The on-disk checkpoint format (PIMCKPT2) is a magic string, a u64
// payload length, a u32 CRC32C of the payload, then the gob payload.
// Torn files and flipped bits fail with a clean labeled error before
// gob sees a byte, which is what makes crash-time checkpoints
// trustworthy to resume from. It is the only format Encode produces and
// DecodeSnapshot accepts.
const snapshotMagicV2 = "PIMCKPT2\n"

// SnapshotMagic is the magic prefix of checkpoints Encode writes,
// exported so artifact sniffers (pimtrace verify) can recognize the
// file type without importing format internals.
const SnapshotMagic = snapshotMagicV2

// snapshotFrameBytes is the frame after the magic: u64 payload
// length, u32 payload CRC32C.
const snapshotFrameBytes = 12

// maxSnapshotBytes bounds the declared payload length DecodeSnapshot
// trusts. A stats-only checkpoint of the default layout is tens of
// kilobytes, and older builds' memory images tens of megabytes; a
// corrupt length field must not demand an absurd allocation.
const maxSnapshotBytes = 16 << 30

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the snapshot with encoding/gob behind a magic,
// payload length and CRC32C. Checkpoints are host-internal artifacts
// (resume files), so a self-describing stdlib payload beats a
// hand-rolled one; the frame adds the integrity check gob lacks.
func (s *Snapshot) Encode(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return err
	}
	if _, err := io.WriteString(w, snapshotMagicV2); err != nil {
		return err
	}
	var frame [snapshotFrameBytes]byte
	binary.LittleEndian.PutUint64(frame[0:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(payload.Bytes(), snapshotCRCTable))
	if _, err := w.Write(frame[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// DecodeSnapshot reads a snapshot written by Encode. A stream whose
// payload is torn or corrupt fails with a labeled error before any of it
// is interpreted.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	got := make([]byte, len(snapshotMagicV2))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("machine: reading checkpoint magic: %w", err)
	}
	if string(got) != snapshotMagicV2 {
		return nil, fmt.Errorf("machine: bad checkpoint magic %q", got)
	}
	var frame [snapshotFrameBytes]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("machine: checkpoint torn inside frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint64(frame[0:])
	wantCRC := binary.LittleEndian.Uint32(frame[8:])
	if plen == 0 || plen > maxSnapshotBytes {
		return nil, fmt.Errorf("machine: corrupt checkpoint frame: payload length %d", plen)
	}
	// Read through a limited buffer so a corrupt length cannot demand a
	// giant upfront allocation: the buffer grows only as real bytes
	// arrive.
	var payload bytes.Buffer
	n, err := io.Copy(&payload, io.LimitReader(r, int64(plen)))
	if err != nil {
		return nil, fmt.Errorf("machine: reading checkpoint payload: %w", err)
	}
	if uint64(n) != plen {
		return nil, fmt.Errorf("machine: checkpoint torn at byte offset %d: %d of %d payload bytes",
			int64(len(snapshotMagicV2)+snapshotFrameBytes)+n, n, plen)
	}
	if got := crc32.Checksum(payload.Bytes(), snapshotCRCTable); got != wantCRC {
		return nil, fmt.Errorf("machine: checkpoint checksum mismatch (computed %#x, stored %#x)", got, wantCRC)
	}
	s := new(Snapshot)
	if err := gob.NewDecoder(&payload).Decode(s); err != nil {
		return nil, fmt.Errorf("machine: decoding checkpoint: %w", err)
	}
	return s, nil
}

// WriteFile atomically persists the snapshot: the bytes land in a
// temporary sibling, are fsynced, and replace path in one rename. A
// crash mid-write leaves the previous checkpoint intact — the property
// the resume protocol depends on.
func (s *Snapshot) WriteFile(path string) error {
	return safeio.WriteFile(path, s.Encode)
}

// ReadSnapshotFile reads a checkpoint file written by WriteFile.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := DecodeSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
