// Full-scale soak tests: run every paper benchmark at its default scale
// on the base system, verifying the computed answers and the coherence
// invariants. Skipped with -short (several seconds per benchmark).
package pimcache

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/trace"
)

func TestSoakFullScaleBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale benchmarks take seconds each")
	}
	for _, b := range programs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ccfg := bench.BaseCache(cache.OptionsAll())
			ccfg.VerifyDW = true // assert the DW software contract throughout
			rd, _, err := bench.RunLive(b, b.DefaultScale, 8, ccfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Result.Floating != 0 {
				t.Errorf("%d floating goals at termination", rd.Result.Floating)
			}
			if rd.Result.Emu.Reductions < 10_000 {
				t.Errorf("suspiciously few reductions: %d", rd.Result.Emu.Reductions)
			}
			t.Logf("%s: %d reductions, %d refs, %d bus cycles, miss %.4f",
				b.Name, rd.Result.Emu.Reductions, rd.Cache.TotalRefs(),
				rd.Bus.TotalCycles, rd.Cache.MissRatio())
		})
	}
}

func TestSoakGCFullBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	// Puzzle at default scale with a heap small enough to force many
	// collections; the answer must be unchanged.
	cfg := DefaultConfig()
	cfg.PEs = 4
	cfg.HeapWords = 96 << 10 // per-PE semispace: 12K words
	cfg.EnableGC = true
	b, _ := programs.ByName("Puzzle")
	res, err := Run(b.Source(b.DefaultScale), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("failed: %s", res.FailReason)
	}
	if want := b.Expected(b.DefaultScale); res.Output != want {
		t.Errorf("output %q, want %q", res.Output, want)
	}
}

// TestSoakKillResumeBitIdentical is the crash-safety oracle at full
// scale: a real benchmark trace is replayed with the process "dying"
// immediately after every checkpoint write, resumed from the surviving
// checkpoint file each time until it finishes. The stitched-together
// run must produce bus and cache statistics bit-identical to one
// uninterrupted replay — no reference lost, none replayed twice, no
// state leaking across the crash boundary.
func TestSoakKillResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	b, _ := programs.ByName("Tri")
	ccfg := bench.BaseCache(cache.OptionsAll())
	_, tr, err := bench.RunLive(b, b.DefaultScale, 8, ccfg, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	timing := bus.DefaultTiming()

	ref, err := replayAll(raw, ccfg, timing, bench.CheckpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
	crash := errors.New("simulated crash after checkpoint write")
	// Cadence chosen so a ~15M-ref trace yields a few dozen crash
	// cycles; every attempt re-validates the skipped prefix, so the
	// loop is quadratic in attempts.
	const every = 500_000
	var out *bench.ReplayOutcome
	var lastPos int
	attempts := 0
	for {
		attempts++
		if attempts > 10_000 {
			t.Fatal("kill/resume loop is not converging")
		}
		var snap *machine.Snapshot
		switch s, err := machine.ReadSnapshotFile(ckpt); {
		case err == nil:
			snap = s
			if s.RefsReplayed <= lastPos {
				t.Fatalf("attempt %d: checkpoint position %d did not advance past %d",
					attempts, s.RefsReplayed, lastPos)
			}
			lastPos = s.RefsReplayed
		case os.IsNotExist(err):
			// First attempt: fresh start.
		default:
			t.Fatal(err)
		}
		ck := bench.CheckpointOptions{
			Every: every,
			// Failing after the durable write models a crash between
			// checkpoint and next chunk.
			Write: func(s *machine.Snapshot) error {
				if err := s.WriteFile(ckpt); err != nil {
					return err
				}
				return crash
			},
		}
		out, err = replayAll(raw, ccfg, timing, ck, snap)
		if err == nil {
			break
		}
		if !errors.Is(err, crash) {
			t.Fatal(err)
		}
	}
	if attempts < 3 {
		t.Fatalf("only %d attempts — the trace is too small to exercise resume", attempts)
	}
	if out.Refs != ref.Refs || out.Cache != ref.Cache || out.Bus != ref.Bus {
		t.Errorf("stitched run diverged from uninterrupted run after %d crashes:\nrefs %d vs %d\nmiss %.6f vs %.6f\nbus %d vs %d",
			attempts-1, out.Refs, ref.Refs,
			out.Cache.MissRatio(), ref.Cache.MissRatio(),
			out.Bus.TotalCycles, ref.Bus.TotalCycles)
	}
	t.Logf("%d refs replayed across %d crash/resume cycles, stats bit-identical", out.Refs, attempts-1)
}

func replayAll(raw []byte, ccfg cache.Config, timing bus.Timing, ck bench.CheckpointOptions, snap *machine.Snapshot) (*bench.ReplayOutcome, error) {
	d, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return bench.ReplayReaderResumable(context.Background(), d, ccfg, timing, nil, ck, snap)
}

func TestSoakDeterminismFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	b, _ := programs.ByName("Pascal")
	r1, _, err := bench.RunLive(b, b.DefaultScale, 8, bench.BaseCache(cache.OptionsAll()), false)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := bench.RunLive(b, b.DefaultScale, 8, bench.BaseCache(cache.OptionsAll()), false)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bus.TotalCycles != r2.Bus.TotalCycles || r1.Result.Steps != r2.Result.Steps {
		t.Errorf("nondeterministic full-scale run: %d/%d vs %d/%d",
			r1.Bus.TotalCycles, r1.Result.Steps, r2.Bus.TotalCycles, r2.Result.Steps)
	}
}
