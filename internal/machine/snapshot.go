package machine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/safeio"
)

// Snapshot is a complete machine checkpoint: configuration, shared
// memory, bus state (statistics, presence filters, probe clock) and every
// cache's planes, lock directory and statistics. Restoring a snapshot
// into a machine of the same configuration and then continuing a trace
// replay produces bit-identical statistics and probe event streams to the
// uninterrupted run — the property TestCheckpointResume pins and the
// warmed-sweep harness in internal/bench relies on.
//
// Processor state (the KL1 reduction engines attached via Attach) is NOT
// captured: checkpoints exist for trace replay, where the reference
// stream itself is the program and the machine's processors are unused.
type Snapshot struct {
	// Config identifies the machine shape the snapshot was taken from;
	// Restore refuses a mismatch rather than silently misinterpreting
	// plane geometry.
	Config Config
	// RefsReplayed records how many references of the source trace had
	// been replayed at the checkpoint, so a resumer knows where to
	// continue. Purely advisory for non-replay uses (zero when the caller
	// never sets it).
	RefsReplayed int
	Steps        uint64
	Rounds       uint64
	Memory       []word.Word
	Bus          *bus.Snapshot
	Caches       []*cache.Snapshot
}

// Checkpoint captures the machine's complete simulated state.
func (m *Machine) Checkpoint() *Snapshot {
	s := &Snapshot{
		Config: m.cfg,
		Steps:  m.steps,
		Rounds: m.rounds,
		Memory: m.memory.Snapshot(),
		Bus:    m.bus.Snapshot(),
		Caches: make([]*cache.Snapshot, len(m.caches)),
	}
	for i, c := range m.caches {
		s.Caches[i] = c.Snapshot()
	}
	return s
}

// Restore overwrites the machine's simulated state from a snapshot taken
// on a machine with an identical configuration. Probe sinks and attached
// processors are wiring, not simulated state, and are left as they are.
//
// The one tolerated difference is the data plane: a data-carrying
// snapshot restores into a stats-only machine by dropping its data
// image (no statistic depends on a value), so checkpoints written by a
// data-carrying replay stay resumable. The reverse is refused — a
// stats-only snapshot has no values to give a data-carrying machine.
func (m *Machine) Restore(s *Snapshot) error {
	cfg := s.Config
	if cfg.Cache.StatsOnly && !m.cfg.Cache.StatsOnly {
		return fmt.Errorf("machine: snapshot is stats-only (no data image) and cannot restore into a data-carrying machine")
	}
	cfg.Cache.StatsOnly = m.cfg.Cache.StatsOnly
	if cfg != m.cfg {
		return fmt.Errorf("machine: snapshot config %+v does not match machine %+v", s.Config, m.cfg)
	}
	if len(s.Caches) != len(m.caches) {
		return fmt.Errorf("machine: snapshot has %d caches, machine has %d", len(s.Caches), len(m.caches))
	}
	if err := m.memory.Restore(s.Memory); err != nil {
		return err
	}
	if err := m.bus.Restore(s.Bus); err != nil {
		return err
	}
	for i, c := range m.caches {
		if err := c.Restore(s.Caches[i]); err != nil {
			return fmt.Errorf("machine: PE %d: %w", i, err)
		}
	}
	m.steps = s.Steps
	m.rounds = s.Rounds
	return nil
}

// The on-disk checkpoint format is versioned by its magic string:
//
//	PIMCKPT1: magic, then a bare gob payload. No integrity check — a
//	          torn or bit-flipped checkpoint surfaces as whatever gob
//	          makes of the damage.
//	PIMCKPT2: magic, u64 payload length, u32 CRC32C of the payload,
//	          then the gob payload. Torn files and flipped bits fail
//	          with a clean labeled error before gob sees a byte, which
//	          is what makes crash-time checkpoints trustworthy to
//	          resume from.
//
// Encode produces version 2; DecodeSnapshot accepts both.
const (
	snapshotMagicV1 = "PIMCKPT1\n"
	snapshotMagicV2 = "PIMCKPT2\n"
)

// SnapshotMagic is the magic prefix of checkpoints Encode writes,
// exported so artifact sniffers (pimtrace verify) can recognize the
// file type without importing format internals.
const SnapshotMagic = snapshotMagicV2

// snapshotFrameBytes is the v2 frame after the magic: u64 payload
// length, u32 payload CRC32C.
const snapshotFrameBytes = 12

// maxSnapshotBytes bounds the declared payload length DecodeSnapshot
// trusts. The largest legitimate snapshots (full memory images of the
// biggest sweep machines) are tens of megabytes; a corrupt length
// field must not demand an absurd allocation.
const maxSnapshotBytes = 16 << 30

var snapshotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the snapshot with encoding/gob behind a magic,
// payload length and CRC32C. Checkpoints are host-internal artifacts
// (sweep caches, resume files), so a self-describing stdlib payload
// beats a hand-rolled one; the frame adds the integrity check gob
// lacks.
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

// DecodeSnapshot reads a snapshot written by Encode (either format
// version). A v2 stream whose payload is torn or corrupt fails with a
// labeled error before any of it is interpreted.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	got := make([]byte, len(snapshotMagicV2))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, fmt.Errorf("machine: reading checkpoint magic: %w", err)
	}
	switch string(got) {
	case snapshotMagicV1:
		// Legacy: gob straight off the stream, no integrity check.
	case snapshotMagicV2:
		var frame [snapshotFrameBytes]byte
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return nil, fmt.Errorf("machine: checkpoint torn inside frame header: %w", err)
		}
		plen := binary.LittleEndian.Uint64(frame[0:])
		wantCRC := binary.LittleEndian.Uint32(frame[8:])
		if plen == 0 || plen > maxSnapshotBytes {
			return nil, fmt.Errorf("machine: corrupt checkpoint frame: payload length %d", plen)
		}
		// Read through a limited buffer so a corrupt length cannot demand
		// a giant upfront allocation: the buffer grows only as real bytes
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
		r = &payload
	default:
		return nil, fmt.Errorf("machine: bad checkpoint magic %q", got)
	}
	s := new(Snapshot)
	if err := gob.NewDecoder(r).Decode(s); err != nil {
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
