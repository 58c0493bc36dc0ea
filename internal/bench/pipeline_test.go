package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/chaos"
	"pimcache/internal/machine"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// withProcs runs f as subtest name under GOMAXPROCS 1, where the decoder
// and the replay interleave on one thread, and 2, where they overlap.
func withProcs(t *testing.T, name string, f func(t *testing.T)) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("%s/procs=%d", name, n), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
			f(t)
		})
	}
}

// TestResumePipelineEquivalence pins the pipelined stream replay to the
// in-memory replay: the same statistics and the same probe event stream,
// under an invalidate, an owned-state and an update protocol, whether the
// decoder runs on a core of its own or interleaved with the replay.
func TestResumePipelineEquivalence(t *testing.T) {
	sc := synth.DefaultConfig()
	sc.PEs = 8
	sc.Events = 40_000
	tr := synth.ORParallel(sc)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	timing := bus.DefaultTiming()
	for _, proto := range []cache.Protocol{cache.ProtocolPIM, cache.ProtocolMOESI, cache.ProtocolDragon} {
		ccfg := BaseCache(cache.OptionsAll())
		ccfg.Protocol = proto
		var memLog eventLog
		bs, cs, err := ReplayConfig(tr, ccfg, timing, &memLog)
		if err != nil {
			t.Fatal(err)
		}
		withProcs(t, proto.String(), func(t *testing.T) {
			var streamLog eventLog
			out, err := ReplayReaderResumable(context.Background(), newStreamReader(t, buf.Bytes()),
				ccfg, timing, &streamLog, CheckpointOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.Refs != uint64(tr.Len()) || out.Bus != bs || out.Cache != cs {
				t.Errorf("stream replay of %d refs diverged from the in-memory replay of %d", out.Refs, tr.Len())
			}
			sameEvents(t, proto.String(), memLog.events, streamLog.events)
		})
	}
}

// lateReadGuard wraps a trace stream and records any Read still running
// after the replay that owns the stream has returned. Each Read dawdles,
// so a decoder left running would almost surely be inside one.
type lateReadGuard struct {
	r        io.Reader
	returned atomic.Bool
	late     atomic.Bool
}

func (g *lateReadGuard) Read(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	n, err := g.r.Read(p)
	if g.returned.Load() {
		g.late.Store(true)
	}
	return n, err
}

// blockedLRTrace is w with a second, conflicting LR of one address
// spliced in at ref at: PE 0 takes the lock, PE 1 then blocks on it.
func blockedLRTrace(t *testing.T, w *trace.Trace, at int) *trace.Trace {
	t.Helper()
	a, area := w.Refs[at].Addr(), w.Refs[at].Area()
	tr := &trace.Trace{PEs: w.PEs, Layout: w.Layout}
	tr.Refs = append(tr.Refs, w.Refs[:at]...)
	tr.Refs = append(tr.Refs,
		trace.MakeRef(0, cache.OpLR, area, a),
		trace.MakeRef(1, cache.OpLR, area, a))
	tr.Refs = append(tr.Refs, w.Refs[at:]...)
	return tr
}

// TestResumePipelineEarlyExits drives every way the pipelined replay can
// return — success, a decode error, a blocked LR, a canceled context, a
// failed checkpoint write and an aborting OnCheckpoint hook — and pins,
// for each: the error text and replayed count a serial chunk-by-chunk
// replay returns (a decode error only once every earlier chunk has
// replayed), no Read on the stream after the return, and the decoder
// goroutine gone.
func TestResumePipelineEarlyExits(t *testing.T) {
	base, raw := resumeWorkload(t, 20_000)
	n := uint64(base.Len())

	// Decode error: a flipped payload bit in the third chunk (the first
	// chunk frame follows the 10-byte magic, the 32-byte header and its
	// CRC; each full chunk is an 8-byte frame and 4096 6-byte refs). The
	// serial decoder's text is the expected one.
	corrupt := append([]byte(nil), raw...)
	corrupt[10+32+4+2*(8+6*4096)+8+100] ^= 0x10
	_, decodeErr := trace.Read(bytes.NewReader(corrupt))
	if decodeErr == nil {
		t.Fatal("corrupted stream decoded cleanly")
	}

	// Blocked LR inside the second chunk.
	lr := blockedLRTrace(t, base, 5000)
	var lrBuf bytes.Buffer
	if err := lr.Write(&lrBuf); err != nil {
		t.Fatal(err)
	}
	_, _, lrErr := ReplayConfig(lr, cache.DefaultConfig(), bus.DefaultTiming(), nil)
	if lrErr == nil {
		t.Fatal("spliced LR did not block")
	}

	injected := errors.New("disk full")
	cases := []struct {
		name     string
		raw      []byte
		cancel   bool // cancel the context at the first checkpoint
		ck       CheckpointOptions
		wantErr  string // "" for success
		wantRefs uint64
	}{
		{name: "success", raw: raw, wantRefs: n},
		{name: "decode-error", raw: corrupt, wantErr: decodeErr.Error(), wantRefs: 2 * 4096},
		{name: "blocked-lr", raw: lrBuf.Bytes(), wantErr: lrErr.Error(), wantRefs: 4096},
		{name: "cancel", raw: raw, cancel: true,
			ck:      CheckpointOptions{Every: 5000, Write: func(*machine.Snapshot) error { return nil }},
			wantErr: "bench: replay canceled after 8192 refs: context canceled", wantRefs: 8192},
		{name: "checkpoint-write", raw: raw,
			ck:      CheckpointOptions{Every: 5000, Write: func(*machine.Snapshot) error { return injected }},
			wantErr: "bench: writing checkpoint at ref 8192: disk full", wantRefs: 8192},
		{name: "on-checkpoint", raw: raw,
			ck: CheckpointOptions{Every: 5000, Write: func(*machine.Snapshot) error { return nil },
				OnCheckpoint: func(at uint64) error {
					if at >= 16384 {
						return chaos.ErrKilled
					}
					return nil
				}},
			wantErr: chaos.ErrKilled.Error(), wantRefs: 16384},
	}
	for _, c := range cases {
		withProcs(t, c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ck := c.ck
			if c.cancel {
				ck.OnCheckpoint = func(uint64) error { cancel(); return nil }
			}
			g := &lateReadGuard{r: bytes.NewReader(c.raw)}
			d, err := trace.NewReader(g)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			out, err := ReplayReaderResumable(ctx, d, cache.DefaultConfig(), bus.DefaultTiming(), nil, ck, nil)
			g.returned.Store(true)

			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != c.wantErr {
				t.Errorf("%s: error %q, want %q", c.name, gotErr, c.wantErr)
			}
			if out == nil || out.Refs != c.wantRefs {
				t.Errorf("%s: outcome %+v, want %d refs", c.name, out, c.wantRefs)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("%s: %d goroutines after the replay returned, %d before", c.name, got, before)
			}
			if g.late.Load() {
				t.Errorf("%s: the stream was read after the replay returned", c.name)
			}
		})
	}
}

// TestResumeCheckpointPositions pins checkpoints to the chunk boundaries
// a serial replay takes them at — Every 5000 over 20,000 refs writes at
// 8192 and 16384 — and each snapshot's trace identity to the reader's at
// that position, not at the position the decoder had read ahead to.
func TestResumeCheckpointPositions(t *testing.T) {
	_, raw := resumeWorkload(t, 20_000)
	var snaps []*machine.Snapshot
	var hooked []uint64
	_, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw), cache.DefaultConfig(), bus.DefaultTiming(), nil,
		CheckpointOptions{Every: 5000,
			Write:        func(s *machine.Snapshot) error { snaps = append(snaps, s); return nil },
			OnCheckpoint: func(at uint64) error { hooked = append(hooked, at); return nil }}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{8192, 16384}
	if fmt.Sprint(hooked) != fmt.Sprint(want) || len(snaps) != len(want) {
		t.Fatalf("checkpoints at %v (%d written), want %v", hooked, len(snaps), want)
	}
	for i, s := range snaps {
		d := newStreamReader(t, raw)
		if err := d.SkipTo(want[i]); err != nil {
			t.Fatal(err)
		}
		id := machine.TraceIdentity{PEs: d.PEs(), Layout: d.Layout(), Refs: d.Len(), Chain: d.Chain()}
		if s.RefsReplayed != int(want[i]) || s.Trace == nil || *s.Trace != id {
			t.Errorf("checkpoint at ref %d: trace identity %v, want %v", s.RefsReplayed, s.Trace, id)
		}
	}
}

// TestResumeRefusesForeignCheckpoint pins the trace-identity check: a
// checkpoint resumes only into the trace it was taken from. A trace with
// another seed, or with the same header but one different reference
// before the checkpoint, fails with ErrForeignCheckpoint naming the
// checkpoint's position; a snapshot without an identity, as older builds
// wrote, still resumes.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	tr, raw := resumeWorkload(t, 20_000)
	ccfg := cache.DefaultConfig()
	timing := bus.DefaultTiming()
	ref, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw), ccfg, timing, nil, CheckpointOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap *machine.Snapshot
	_, err = ReplayReaderResumable(context.Background(), newStreamReader(t, raw), ccfg, timing, nil,
		CheckpointOptions{Every: 5000, Write: func(s *machine.Snapshot) error { snap = s; return nil },
			OnCheckpoint: func(uint64) error { return chaos.ErrKilled }}, nil)
	if !errors.Is(err, chaos.ErrKilled) {
		t.Fatal(err)
	}

	c := synth.DefaultConfig()
	c.PEs, c.Events, c.Seed = 4, 20_000, 2
	var other bytes.Buffer
	if err := synth.ORParallel(c).Write(&other); err != nil {
		t.Fatal(err)
	}
	edited := &trace.Trace{PEs: tr.PEs, Layout: tr.Layout, Refs: append([]trace.Ref(nil), tr.Refs...)}
	r := edited.Refs[100]
	edited.Refs[100] = trace.MakeRef((r.PE()+1)%uint8(tr.PEs), r.Op(), r.Area(), r.Addr())
	var same bytes.Buffer
	if err := edited.Write(&same); err != nil {
		t.Fatal(err)
	}
	for name, foreign := range map[string][]byte{"other-seed": other.Bytes(), "same-header": same.Bytes()} {
		_, err := ReplayReaderResumable(context.Background(), newStreamReader(t, foreign), ccfg, timing, nil, CheckpointOptions{}, snap)
		if !errors.Is(err, ErrForeignCheckpoint) {
			t.Errorf("%s: resume from a foreign checkpoint: %v, want ErrForeignCheckpoint", name, err)
			continue
		}
		if want := "bench: resume: checkpoint at ref 8192: taken from a different trace"; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q, want it to start %q", name, err, want)
		}
	}

	older := *snap
	older.Trace = nil
	for _, s := range []*machine.Snapshot{snap, &older} {
		out, err := ReplayReaderResumable(context.Background(), newStreamReader(t, raw), ccfg, timing, nil, CheckpointOptions{}, s)
		if err != nil {
			t.Fatalf("resume (identity recorded: %v): %v", s.Trace != nil, err)
		}
		if out.Refs != ref.Refs || out.Bus != ref.Bus || out.Cache != ref.Cache {
			t.Errorf("resume (identity recorded: %v) diverged from the uninterrupted run", s.Trace != nil)
		}
	}
}
