package machine_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// checkpointWorkload is a lock-heavy multi-PE stream small enough to
// replay many times but large enough to exercise evictions, snoops,
// busy-waits and every optimized command.
func checkpointWorkload() *trace.Trace {
	c := synth.DefaultConfig()
	c.PEs = 4
	c.Events = 30_000
	return synth.ORParallel(c)
}

func replayMachine(tr *trace.Trace, ccfg cache.Config) (*machine.Machine, []mem.Accessor) {
	m := machine.New(machine.Config{
		PEs: tr.PEs, Layout: tr.Layout, Cache: ccfg, Timing: bus.DefaultTiming(),
	})
	ports := make([]mem.Accessor, tr.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	return m, ports
}

// TestCheckpointResume pins the checkpoint contract: restoring a
// mid-replay snapshot and replaying the remaining references produces
// bit-identical bus statistics, per-PE cache statistics and probe event
// streams versus the uninterrupted replay — for every protocol at block
// sizes 1, 4 and 8 (4 only under -short), and across a gob
// encode/decode of the snapshot. The restore lands on a machine that
// has replayed a different prefix, so the bus presence and lock filters
// it rebuilds must drop that machine's blocks and locks and take the
// snapshot's.
func TestCheckpointResume(t *testing.T) {
	tr := checkpointWorkload()
	k := tr.Len() / 3
	blocks := []int{1, 4, 8}
	if testing.Short() {
		blocks = []int{4}
	}
	for _, p := range cache.Protocols() {
		t.Run(p.ID().String(), func(t *testing.T) {
			for _, bw := range blocks {
				t.Run(fmt.Sprintf("block%d", bw), func(t *testing.T) {
					ccfg := cache.DefaultConfig()
					ccfg.Options = cache.OptionsAll()
					ccfg.Protocol = p.ID()
					ccfg.BlockWords = bw
					checkResume(t, tr, ccfg, k)
				})
			}
		})
	}
}

// checkResume replays tr uninterrupted and again through a checkpoint
// at ref k, and requires identical statistics and probe streams.
func checkResume(t *testing.T, tr *trace.Trace, ccfg cache.Config, k int) {
	// Uninterrupted reference run.
	ref, refPorts := replayMachine(tr, ccfg)
	refProbe := &probe.Buffer{}
	ref.SetProbe(refProbe)
	if err := trace.Replay(tr, refPorts); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: replay [0, k), checkpoint, serialize, restore
	// into a machine that replayed [0, k/2), replay [k, n).
	a, aPorts := replayMachine(tr, ccfg)
	aProbe := &probe.Buffer{}
	a.SetProbe(aProbe)
	if err := trace.ReplayRange(tr, aPorts, 0, k); err != nil {
		t.Fatal(err)
	}
	snap := a.Checkpoint()
	snap.RefsReplayed = k

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := machine.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.RefsReplayed != k {
		t.Fatalf("decoded RefsReplayed = %d, want %d", decoded.RefsReplayed, k)
	}

	b, bPorts := replayMachine(tr, ccfg)
	if err := trace.ReplayRange(tr, bPorts, 0, k/2); err != nil {
		t.Fatal(err)
	}
	bProbe := &probe.Buffer{}
	b.SetProbe(bProbe)
	if err := b.Restore(decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := b.CheckInvariants(traceAddrs(tr)); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if err := trace.ReplayRange(tr, bPorts, decoded.RefsReplayed, tr.Len()); err != nil {
		t.Fatal(err)
	}

	if got, want := b.BusStats(), ref.BusStats(); got != want {
		t.Errorf("bus stats diverged:\nresumed %+v\nuninterrupted %+v", got, want)
	}
	for pe := 0; pe < tr.PEs; pe++ {
		if got, want := b.Cache(pe).Stats(), ref.Cache(pe).Stats(); got != want {
			t.Errorf("PE %d cache stats diverged", pe)
		}
	}

	events := append(append([]probe.Event(nil), aProbe.Events...), bProbe.Events...)
	if len(events) != len(refProbe.Events) {
		t.Fatalf("probe stream length %d, want %d", len(events), len(refProbe.Events))
	}
	for i := range events {
		if events[i] != refProbe.Events[i] {
			t.Fatalf("probe event %d diverged:\nresumed %+v\nuninterrupted %+v",
				i, events[i], refProbe.Events[i])
		}
	}
}

// traceAddrs lists every address tr references.
func traceAddrs(tr *trace.Trace) []word.Addr {
	addrs := make([]word.Addr, len(tr.Refs))
	for i, r := range tr.Refs {
		addrs[i] = r.Addr()
	}
	return addrs
}

// TestRestoreRejectsMismatch: restoring into a differently configured
// machine must fail loudly, not misinterpret plane geometry.
func TestRestoreRejectsMismatch(t *testing.T) {
	tr := checkpointWorkload()
	ccfg := cache.DefaultConfig()
	m, ports := replayMachine(tr, ccfg)
	if err := trace.ReplayRange(tr, ports, 0, 1000); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()

	other := cache.DefaultConfig()
	other.SizeWords = 2 << 10
	n, _ := replayMachine(tr, other)
	if err := n.Restore(snap); err == nil {
		t.Error("restore into mismatched cache geometry succeeded")
	}
}

// TestNewDataMachineIsSmall: a data-carrying machine of the bench
// layout allocates its memory pages only as they are written, so
// building one costs far less than the 75 MiB flat image.
func TestNewDataMachineIsSmall(t *testing.T) {
	cfg := machine.DefaultConfig()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := machine.New(cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("machine.New allocated %d bytes, want under 1 MiB", got)
	}
	if res, total := m.Memory().Pages(); res != 0 || total != 2401 {
		t.Errorf("new machine has %d of %d pages resident, want 0 of 2401", res, total)
	}
}

// TestDataCheckpointFileResume: a data-carrying machine's checkpoint
// survives WriteFile, ReadSnapshotFile and Restore, and the restored
// machine continues bit-identically to the original — every value it
// reads, its statistics and its memory image — while allocating only
// the pages that hold data.
func TestDataCheckpointFileResume(t *testing.T) {
	cfg := machine.Config{PEs: 4, Layout: mem.DefaultLayout(), Cache: cache.DefaultConfig(), Timing: bus.DefaultTiming()}
	cfg.Cache.SizeWords = 256 // small caches: evictions write back to memory
	// Word-granular reads and writes by every PE over addresses spread
	// across several pages, so blocks are shared, invalidated, evicted
	// and written back.
	type op struct {
		pe    int
		write bool
		a     word.Addr
		v     word.Word
	}
	rng := rand.New(rand.NewPCG(1, 2))
	heap := cfg.Layout.Bounds().HeapBase
	ops := make([]op, 40_000)
	for i := range ops {
		ops[i] = op{
			pe:    rng.IntN(cfg.PEs),
			write: rng.IntN(3) == 0,
			a:     heap + word.Addr(rng.IntN(8)*20_000+rng.IntN(512)),
			v:     word.Int(int64(rng.IntN(1000) + 1)),
		}
	}
	run := func(m *machine.Machine, ops []op) []word.Word {
		var reads []word.Word
		for _, o := range ops {
			if o.write {
				m.Port(o.pe).Write(o.a, o.v)
			} else {
				reads = append(reads, m.Port(o.pe).Read(o.a))
			}
		}
		return reads
	}
	half := len(ops) / 2
	a := machine.New(cfg)
	run(a, ops[:half])
	path := filepath.Join(t.TempDir(), "data.ckpt")
	if err := a.Checkpoint().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := machine.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := machine.New(cfg)
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	resident, _ := b.Memory().Pages()
	nonzero := 0
	for p := 0; p < len(snap.Memory); p += 4096 {
		if slices.ContainsFunc(snap.Memory[p:min(p+4096, len(snap.Memory))], func(w word.Word) bool { return w != 0 }) {
			nonzero++
		}
	}
	if nonzero == 0 || resident != nonzero {
		t.Errorf("restored machine has %d pages resident, want the %d that hold data", resident, nonzero)
	}

	if got, want := run(b, ops[half:]), run(a, ops[half:]); !slices.Equal(got, want) {
		t.Error("restored machine read different values than the original")
	}
	if got, want := b.BusStats(), a.BusStats(); got != want {
		t.Errorf("bus stats diverged:\nrestored %+v\noriginal %+v", got, want)
	}
	if got, want := b.CacheStats(), a.CacheStats(); got != want {
		t.Errorf("cache stats diverged")
	}
	a.FlushAll()
	b.FlushAll()
	if !slices.Equal(b.Memory().Snapshot(), a.Memory().Snapshot()) {
		t.Error("memory images diverged")
	}
}
