package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/chaos"
	"pimcache/internal/machine"
	"pimcache/internal/safeio"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// resumeWorkload is a lock-heavy multi-PE stream serialized in the
// current (checksummed) format.
func resumeWorkload(t testing.TB, events int) (*trace.Trace, []byte) {
	t.Helper()
	c := synth.DefaultConfig()
	c.PEs = 4
	c.Events = events
	tr := synth.ORParallel(c)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

func newStreamReader(t testing.TB, raw []byte) *trace.Reader {
	t.Helper()
	d, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// resumeConfigs are the protocol × checkpoint-plane points the resume
// oracle covers. StatsOnly selects the machine the checkpoint comes
// from: true is the replay's own stats-only machine, false a
// data-carrying one, as older builds wrote.
func resumeConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, proto := range []cache.Protocol{
		cache.ProtocolPIM, cache.ProtocolIllinois, cache.ProtocolWriteThrough,
	} {
		for _, statsOnly := range []bool{false, true} {
			ccfg := cache.DefaultConfig()
			ccfg.Options = cache.OptionsAll()
			ccfg.Protocol = proto
			ccfg.StatsOnly = statsOnly
			cfgs = append(cfgs, ccfg)
		}
	}
	return cfgs
}

func configLabel(ccfg cache.Config) string {
	return fmt.Sprintf("%v/statsOnly=%v", ccfg.Protocol, ccfg.StatsOnly)
}

// TestResumeBitIdentical is the tentpole oracle: a replay killed at a
// checkpoint and resumed from the durable snapshot finishes with
// bus and cache statistics bit-identical to the uninterrupted run —
// across all three protocols, resuming from the replay's own stats-only
// checkpoint or from a data-carrying machine's checkpoint taken at the
// same position.
func TestResumeBitIdentical(t *testing.T) {
	tr, raw := resumeWorkload(t, 30_000)
	timing := bus.DefaultTiming()
	for _, ccfg := range resumeConfigs() {
		ccfg := ccfg
		t.Run(configLabel(ccfg), func(t *testing.T) {
			ref, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
				ccfg, timing, nil, CheckpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: checkpoint every 7000 refs to a real file,
			// die right after the second checkpoint.
			ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
			kill := chaos.KillAfter(2)
			out, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
				ccfg, timing, nil,
				CheckpointOptions{Every: 7000, Path: ckpt, OnCheckpoint: func(uint64) error { return kill() }},
				nil)
			if !errors.Is(err, chaos.ErrKilled) {
				t.Fatalf("interrupted run: err=%v, want ErrKilled (outcome %+v)", err, out)
			}

			snap, err := machine.ReadSnapshotFile(ckpt)
			if err != nil {
				t.Fatalf("reading checkpoint: %v", err)
			}
			// Checkpoints land on chunk boundaries at or after the cadence:
			// two checkpoints of Every=7000 over 4096-ref chunks → 16384.
			if snap.RefsReplayed <= 7000 || uint64(snap.RefsReplayed) >= ref.Refs {
				t.Fatalf("checkpoint at ref %d, want inside (7000, %d)", snap.RefsReplayed, ref.Refs)
			}
			if !ccfg.StatsOnly {
				snap = dataCheckpoint(t, tr, ccfg, timing, snap.RefsReplayed, filepath.Join(t.TempDir(), "data.ckpt"))
			}
			resumed, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
				ccfg, timing, nil, CheckpointOptions{}, snap)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			if resumed.Refs != ref.Refs {
				t.Errorf("resumed run covered %d refs, uninterrupted %d", resumed.Refs, ref.Refs)
			}
			if resumed.Bus != ref.Bus {
				t.Errorf("bus stats diverged:\nresumed       %+v\nuninterrupted %+v", resumed.Bus, ref.Bus)
			}
			if resumed.Cache != ref.Cache {
				t.Errorf("cache stats diverged:\nresumed       %+v\nuninterrupted %+v", resumed.Cache, ref.Cache)
			}
		})
	}
}

// dataCheckpoint replays tr's first k refs on a data-carrying machine and
// round-trips its checkpoint through a file at path.
func dataCheckpoint(t *testing.T, tr *trace.Trace, ccfg cache.Config, timing bus.Timing, k int, path string) *machine.Snapshot {
	t.Helper()
	m, ports := dataMachine(tr.PEs, tr.Layout, ccfg, timing)
	if err := trace.ReplayRange(tr, ports, 0, k); err != nil {
		t.Fatal(err)
	}
	snap := m.Checkpoint()
	snap.RefsReplayed = k
	if len(snap.Memory) == 0 {
		t.Fatal("data-carrying checkpoint has no memory image")
	}
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	snap, err := machine.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestResumeCancellation pins prompt, labeled cancellation: a context
// canceled mid-replay stops the run with the replayed count in the
// error, and a checkpoint written before the cancel still resumes to
// bit-identical statistics.
func TestResumeCancellation(t *testing.T) {
	_, raw := resumeWorkload(t, 30_000)
	ccfg := cache.DefaultConfig()
	ccfg.Options = cache.OptionsAll()
	timing := bus.DefaultTiming()

	ref, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
		ccfg, timing, nil, CheckpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
	out, err := ReplayReaderResumable(ctx, newStreamReader(t, raw), ccfg, timing, nil,
		CheckpointOptions{Every: 5000, Path: ckpt, OnCheckpoint: func(refs uint64) error {
			if refs >= 10_000 {
				cancel() // next inter-chunk check sees it
			}
			return nil
		}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled (outcome %+v)", err, out)
	}
	if !strings.Contains(err.Error(), "canceled after") {
		t.Errorf("cancellation error %q lacks replayed count", err)
	}

	snap, err := machine.ReadSnapshotFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
		ccfg, timing, nil, CheckpointOptions{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Bus != ref.Bus || resumed.Cache != ref.Cache {
		t.Error("resume after cancellation diverged from uninterrupted run")
	}
}

// TestResumeRejectsConfigMismatch: resuming under a different cache
// configuration than the checkpoint's must fail loudly.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	_, raw := resumeWorkload(t, 10_000)
	ccfg := cache.DefaultConfig()
	timing := bus.DefaultTiming()
	var captured *machine.Snapshot
	_, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw), ccfg, timing, nil,
		CheckpointOptions{Every: 4000, Write: func(s *machine.Snapshot) error { captured = s; return nil },
			OnCheckpoint: func(uint64) error { return chaos.ErrKilled }}, nil)
	if !errors.Is(err, chaos.ErrKilled) {
		t.Fatal(err)
	}
	other := ccfg
	other.SizeWords *= 2
	if _, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
		other, timing, nil, CheckpointOptions{}, captured); err == nil {
		t.Fatal("resume into mismatched configuration succeeded")
	}
}

// TestChaosMatrixResume drives the full replay+checkpoint+resume path
// through planned faults on every I/O surface — the trace stream and
// the checkpoint writes — and asserts the robustness property: each
// seed ends in a clean labeled error or statistics bit-identical to
// the fault-free run. Never silence, never wrong numbers.
func TestChaosMatrixResume(t *testing.T) {
	_, raw := resumeWorkload(t, 20_000)
	timing := bus.DefaultTiming()
	ccfg := cache.DefaultConfig()
	ccfg.Options = cache.OptionsAll()

	ref, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
		ccfg, timing, nil, CheckpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	seeds := int64(60)
	if testing.Short() {
		seeds = 12
	}

	// Faulted trace stream: replay reads through a chaos reader.
	t.Run("trace-stream", func(t *testing.T) {
		var clean, faulted int
		for seed := int64(0); seed < seeds; seed++ {
			f := chaos.PlanReads(seed, int64(len(raw)))
			d, err := trace.NewReader(chaos.NewReader(bytes.NewReader(raw), f))
			if err != nil {
				faulted++
				continue
			}
			out, err := ReplayReaderResumable(context.Background(), d, ccfg, timing, nil, CheckpointOptions{}, nil)
			if err != nil {
				faulted++
				continue
			}
			if out.Refs != ref.Refs || out.Bus != ref.Bus || out.Cache != ref.Cache {
				t.Fatalf("seed %d (%s): silent divergence: %d refs (want %d)", seed, f, out.Refs, ref.Refs)
			}
			clean++
		}
		if clean == 0 || faulted == 0 {
			t.Fatalf("degenerate matrix: %d clean, %d faulted", clean, faulted)
		}
	})

	// Faulted checkpoint writes: every write goes through a chaos
	// writer inside the atomic-write seam. A failed checkpoint must
	// abort the run cleanly; whatever checkpoint file survives must
	// either not exist or resume to bit-identical stats.
	t.Run("checkpoint-writes", func(t *testing.T) {
		var snapSize int64
		{
			d := newStreamReader(t, raw)
			var buf bytes.Buffer
			_, err := ReplayReaderResumable(context.Background(), d, ccfg, timing, nil,
				CheckpointOptions{Every: 5000,
					Write: func(s *machine.Snapshot) error { buf.Reset(); return s.Encode(&buf) }}, nil)
			if err != nil {
				t.Fatal(err)
			}
			snapSize = int64(buf.Len())
		}
		for seed := int64(0); seed < seeds; seed++ {
			f := chaos.Plan(seed, snapSize)
			if f.Kind != chaos.WriteError && f.Kind != chaos.TornWrite {
				f.Kind = chaos.TornWrite
			}
			ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
			armed := seed%3 == 0 // some seeds fault the first write, others a later one
			faultAt := 1 + int(seed%3)
			writes := 0
			out, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
				ccfg, timing, nil,
				CheckpointOptions{Every: 5000, Path: ckpt, Write: func(s *machine.Snapshot) error {
					writes++
					if writes == faultAt || armed && writes == 1 {
						return writeSnapshotFaulted(ckpt, s, f)
					}
					return s.WriteFile(ckpt)
				}}, nil)
			if err == nil {
				// The planned offset fell beyond that snapshot's actual
				// size, so the fault never fired — then the run must have
				// been a fully clean one.
				if out.Refs != ref.Refs || out.Bus != ref.Bus || out.Cache != ref.Cache {
					t.Fatalf("seed %d (%s): un-fired fault but diverged stats", seed, f)
				}
				continue
			}
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("seed %d (%s): abort not labeled with the injected fault: %v", seed, f, err)
			}
			// Any surviving checkpoint must be a complete earlier one.
			snap, rerr := machine.ReadSnapshotFile(ckpt)
			if rerr != nil {
				continue // no durable checkpoint — a clean total failure
			}
			resumed, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw),
				ccfg, timing, nil, CheckpointOptions{}, snap)
			if err != nil {
				t.Fatalf("seed %d (%s): surviving checkpoint did not resume: %v", seed, f, err)
			}
			if resumed.Bus != ref.Bus || resumed.Cache != ref.Cache {
				t.Fatalf("seed %d (%s): resume from surviving checkpoint diverged", seed, f)
			}
		}
	})
}

// writeSnapshotFaulted writes s to path through the atomic seam with a
// chaos writer injected, as a crash mid-checkpoint does.
func writeSnapshotFaulted(path string, s *machine.Snapshot, f chaos.Fault) error {
	return safeio.WriteFile(path, func(w io.Writer) error {
		return s.Encode(chaos.NewWriter(w, f))
	})
}
