package machine_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/chaos"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/safeio"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// formatSnapshot builds a small real snapshot for format tests.
func formatSnapshot(t *testing.T) *machine.Snapshot {
	t.Helper()
	tr := checkpointWorkload()
	ccfg := cache.DefaultConfig()
	m, ports := replayMachine(tr, ccfg)
	if err := trace.ReplayRange(tr, ports, 0, 2000); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()
	snap.RefsReplayed = 2000
	return snap
}

// restoreOK round-trips snap through a decode and a Restore into a
// fresh machine, failing the test on any mismatch.
func restoreOK(t *testing.T, snap *machine.Snapshot, raw []byte) {
	t.Helper()
	got, err := machine.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RefsReplayed != snap.RefsReplayed || got.Config != snap.Config {
		t.Fatalf("decoded snapshot differs: %d/%d refs", got.RefsReplayed, snap.RefsReplayed)
	}
	m := machine.New(machine.Config{
		PEs: snap.Config.PEs, Layout: snap.Config.Layout,
		Cache: snap.Config.Cache, Timing: bus.DefaultTiming(),
	})
	if err := m.Restore(got); err != nil {
		t.Fatalf("restore decoded snapshot: %v", err)
	}
}

// TestSnapshotV2DetectsCorruption pins the integrity frame: any
// flipped payload bit, torn tail or mangled length fails with a
// labeled error instead of reaching gob — and so does a stream in the
// retired, unchecksummed PIMCKPT1 format.
func TestSnapshotV2DetectsCorruption(t *testing.T) {
	snap := formatSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !bytes.HasPrefix(raw, []byte(machine.SnapshotMagic)) {
		t.Fatalf("Encode wrote magic %q, want %q", raw[:9], machine.SnapshotMagic)
	}
	restoreOK(t, snap, raw)

	for _, off := range []int{len(machine.SnapshotMagic) + 12, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x20
		if _, err := machine.DecodeSnapshot(bytes.NewReader(bad)); err == nil ||
			!strings.Contains(err.Error(), "checksum mismatch") {
			t.Errorf("bit flip at %d: %v, want checksum mismatch", off, err)
		}
	}

	torn := raw[:len(raw)-37]
	if _, err := machine.DecodeSnapshot(bytes.NewReader(torn)); err == nil ||
		!strings.Contains(err.Error(), "torn") {
		t.Errorf("torn payload: %v, want torn error", err)
	}

	tornFrame := raw[:len(machine.SnapshotMagic)+5]
	if _, err := machine.DecodeSnapshot(bytes.NewReader(tornFrame)); err == nil ||
		!strings.Contains(err.Error(), "torn") {
		t.Errorf("torn frame: %v, want torn error", err)
	}

	hugeLen := append([]byte(nil), raw...)
	for i := 0; i < 8; i++ {
		hugeLen[len(machine.SnapshotMagic)+i] = 0xFF
	}
	if _, err := machine.DecodeSnapshot(bytes.NewReader(hugeLen)); err == nil ||
		!strings.Contains(err.Error(), "payload length") {
		t.Errorf("huge length: %v, want length error", err)
	}

	var v1 bytes.Buffer
	v1.WriteString("PIMCKPT1\n")
	if err := gob.NewEncoder(&v1).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := machine.DecodeSnapshot(&v1); err == nil ||
		!strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Errorf("v1 checkpoint: %v, want bad-magic error", err)
	}
}

// TestSnapshotWriteFileAtomic pins the crash-safety contract of the
// checkpoint file: a write that dies mid-stream leaves the previous
// checkpoint byte-identical and decodable.
func TestSnapshotWriteFileAtomic(t *testing.T) {
	snap := formatSnapshot(t)
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := machine.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RefsReplayed != snap.RefsReplayed {
		t.Fatalf("round trip lost RefsReplayed: %d != %d", got.RefsReplayed, snap.RefsReplayed)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A later checkpoint write that tears must not damage this one.
	snap2 := formatSnapshot(t)
	snap2.RefsReplayed = 9999
	err = writeSnapshotTorn(path, snap2)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("torn checkpoint write damaged the previous checkpoint")
	}
	if got, err := machine.ReadSnapshotFile(path); err != nil || got.RefsReplayed != snap.RefsReplayed {
		t.Fatalf("previous checkpoint unreadable after torn write: %v", err)
	}
}

// writeSnapshotTorn simulates a crash mid-checkpoint-write using the
// chaos writer inside the same atomic-write seam WriteFile uses.
func writeSnapshotTorn(path string, snap *machine.Snapshot) error {
	var full bytes.Buffer
	if err := snap.Encode(&full); err != nil {
		return err
	}
	tear := chaos.Fault{Kind: chaos.TornWrite, Offset: int64(full.Len() / 2)}
	return safeio.WriteFile(path, func(w io.Writer) error {
		return snap.Encode(chaos.NewWriter(w, tear))
	})
}

// legacyBusSnapshot, legacyCacheSnapshot and legacySnapshot have the
// field names of the checkpoint formats older builds wrote: sections for
// the step and round counts, the memory image and each cache's data
// plane, and a bus section that stored the presence and lock filters.
// gob matches fields by name, so encoding them writes those formats.
type legacyBusSnapshot struct {
	Stats      bus.Stats
	Presence   []uint64
	LockCounts []uint32
	TotalLocks int
	Ticks      uint64
}

type legacyCacheSnapshot struct {
	States    []cache.State
	Bases     []word.Addr
	LRU       []uint64
	Data      []word.Word
	LRUClock  uint64
	UpdCounts []uint8
	Locks     []cache.LockEntrySnapshot
	Blocked   bool
	BlockedOn word.Addr
	Stats     cache.Stats
}

type legacySnapshot struct {
	Config       machine.Config
	RefsReplayed int
	Steps        uint64
	Rounds       uint64
	Memory       []word.Word
	Bus          *legacyBusSnapshot
	Caches       []*legacyCacheSnapshot
	Trace        *machine.TraceIdentity
}

// legacyOf copies s, taken at ref k, into the older field layout, with
// empty filter, memory and data sections.
func legacyOf(s *machine.Snapshot, k int) *legacySnapshot {
	old := &legacySnapshot{
		Config: s.Config, RefsReplayed: k, Trace: s.Trace,
		Bus: &legacyBusSnapshot{Stats: s.Bus.Stats, Ticks: s.Bus.Ticks},
	}
	for _, c := range s.Caches {
		old.Caches = append(old.Caches, &legacyCacheSnapshot{
			States: c.States, Bases: c.Bases, LRU: c.LRU, LRUClock: c.LRUClock, UpdCounts: c.UpdCounts,
			Locks: c.Locks, Blocked: c.Blocked, BlockedOn: c.BlockedOn, Stats: c.Stats,
		})
	}
	return old
}

// encodeFramed writes v in the PIMCKPT2 frame: magic, u64 payload
// length, u32 payload CRC32C, gob payload.
func encodeFramed(t *testing.T, v any) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	out := []byte(machine.SnapshotMagic)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload.Bytes()...)
}

// resumeLegacy checkpoints a replay a third of the way through, writes
// the checkpoint in the older layout with edit applied, and requires the
// decoded checkpoint to verify and to resume to the uninterrupted
// replay's statistics.
func resumeLegacy(t *testing.T, edit func(old *legacySnapshot)) {
	t.Helper()
	tr := checkpointWorkload()
	ccfg := cache.DefaultConfig()
	ccfg.Options = cache.OptionsAll()
	ref, refPorts := replayMachine(tr, ccfg)
	if err := trace.Replay(tr, refPorts); err != nil {
		t.Fatal(err)
	}

	k := tr.Len() / 3
	a, aPorts := replayMachine(tr, ccfg)
	if err := trace.ReplayRange(tr, aPorts, 0, k); err != nil {
		t.Fatal(err)
	}
	old := legacyOf(a.Checkpoint(), k)
	edit(old)
	decoded, err := machine.DecodeSnapshot(bytes.NewReader(encodeFramed(t, old)))
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	b, bPorts := replayMachine(tr, ccfg)
	if err := b.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	if err := trace.ReplayRange(tr, bPorts, decoded.RefsReplayed, tr.Len()); err != nil {
		t.Fatal(err)
	}
	if got, want := b.BusStats(), ref.BusStats(); got != want {
		t.Errorf("resumed from an older checkpoint: %d bus cycles, uninterrupted %d", got.TotalCycles, want.TotalCycles)
	}
	if got, want := b.CacheStats(), ref.CacheStats(); got != want {
		t.Error("cache stats diverged")
	}
}

// TestRestoreIgnoresStoredFilters: a checkpoint in the older format,
// whose stored presence table and lock counts disagree with its caches,
// resumes bit-identically, because Restore rebuilds the filters from
// the caches instead of trusting the stored copy.
func TestRestoreIgnoresStoredFilters(t *testing.T) {
	resumeLegacy(t, func(old *legacySnapshot) {
		old.Bus.Presence = make([]uint64, (old.Config.Layout.TotalWords()+old.Config.Cache.BlockWords-1)/old.Config.Cache.BlockWords)
		old.Bus.LockCounts = make([]uint32, old.Config.PEs)
	})
}

// TestSnapshotParentFormatResumes: a checkpoint with the sections this
// format dropped (step and round counts, a memory image and every
// cache's data plane, all holding values) still decodes, verifies and
// resumes bit-identically: gob skips the fields the snapshot no longer
// has.
func TestSnapshotParentFormatResumes(t *testing.T) {
	resumeLegacy(t, func(old *legacySnapshot) {
		old.Steps, old.Rounds = 12345, 678
		old.Memory = make([]word.Word, old.Config.Layout.TotalWords())
		for i := 0; i < len(old.Memory); i += 997 {
			old.Memory[i] = word.Int(int64(i))
		}
		for i, c := range old.Caches {
			c.Data = make([]word.Word, old.Config.Cache.SizeWords)
			for j := range c.Data {
				c.Data[j] = word.Int(int64(i + j))
			}
		}
	})
}

// TestRestoreRefusesMalformedSnapshots: a well-framed checkpoint that
// lacks a section, or whose lock directory holds an entry no run can
// produce, is refused by Restore and by Verify with a labeled error,
// never a panic.
func TestRestoreRefusesMalformedSnapshots(t *testing.T) {
	snap := formatSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := []struct {
		name string
		edit func(s *machine.Snapshot)
		want string
	}{
		{"no bus section", func(s *machine.Snapshot) { s.Bus = nil },
			"machine: snapshot has no bus section"},
		{"unknown lock state", func(s *machine.Snapshot) { s.Caches[1].Locks[0].State = 7 },
			"machine: PE 1: cache: snapshot lock entry 0: unknown state 7"},
		{"one address locked twice", func(s *machine.Snapshot) {
			s.Caches[1].Locks[0] = cache.LockEntrySnapshot{Addr: 0x4000, State: cache.LCK}
			s.Caches[1].Locks[3] = cache.LockEntrySnapshot{Addr: 0x4000, State: cache.LWAIT}
		}, "machine: PE 1: cache: snapshot lock entries 0 and 3 both lock 0x4000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := machine.DecodeSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(s)
			var edited bytes.Buffer
			if err := s.Encode(&edited); err != nil {
				t.Fatal(err)
			}
			s, err = machine.DecodeSnapshot(&edited)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(s.Config)
			if err := m.Restore(s); err == nil || err.Error() != tc.want {
				t.Errorf("Restore = %v, want %q", err, tc.want)
			}
			if err := s.Verify(); err == nil || err.Error() != tc.want {
				t.Errorf("Verify = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointHoldsNoFilters pins what a checkpoint costs: an 8-PE
// replay of the default layout writes tens of kilobytes, not the
// presence table's one word per memory block (2.4M blocks, about
// 2.5 MB encoded).
func TestCheckpointHoldsNoFilters(t *testing.T) {
	c := synth.DefaultConfig()
	c.PEs = 8
	c.Events = 20_000
	c.Layout = mem.DefaultLayout()
	tr := synth.ORParallel(c)
	m, ports := replayMachine(tr, cache.DefaultConfig())
	if err := trace.Replay(tr, ports); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Checkpoint().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 100<<10 {
		t.Errorf("checkpoint is %d bytes, want under 100 KiB", buf.Len())
	}
}
