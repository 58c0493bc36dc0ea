package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/probe"
	"pimcache/internal/trace"
)

// CheckpointOptions configures periodic durable checkpoints during a
// streaming replay.
type CheckpointOptions struct {
	// Every is the checkpoint cadence in replayed references; 0 disables
	// checkpointing.
	Every uint64
	// Write persists each checkpoint (pimtrace's does Snapshot.WriteFile,
	// which is atomic: a crash at any instant leaves either the previous
	// or the new checkpoint intact, never a torn one). It runs on every
	// checkpoint with the snapshot's RefsReplayed set; a non-nil error
	// aborts the replay, so a writer can also stop a run at a
	// reproducible point (the chaos harness returns chaos.ErrKilled).
	Write func(*machine.Snapshot) error
}

// ReplayOutcome is the result of a (possibly resumed) streaming replay.
type ReplayOutcome struct {
	Bus   bus.Stats
	Cache cache.Stats
	// Refs is the absolute reference count the statistics reflect,
	// including references replayed before the resume point.
	Refs uint64
	// SeekTime is the host time a resume spent restoring the checkpoint
	// and seeking the reader to its position, before the replay starts.
	SeekTime time.Duration
	// DecodeTime is the host time the decoder goroutine spent in
	// Reader.Next (reading, checksums, any tee on the source, decoding);
	// StallTime is the time the replay waited on an empty ring. A run
	// whose StallTime is a large share of its wall time was
	// decode-bound. Host timing only, as SeekTime is: no simulated
	// result depends on any of them.
	DecodeTime, StallTime time.Duration
}

// ErrForeignCheckpoint marks a resume refused because the checkpoint was
// taken from a different trace than the one being replayed.
var ErrForeignCheckpoint = errors.New("taken from a different trace")

// ReplayReaderResumable replays a serialized stream straight from its
// Reader in chunks, never materializing the reference slice, so
// multi-gigabyte traces replay in constant memory. It supports
// cancellation, periodic durable checkpoints and crash resume; a
// non-nil sink receives the memory-system event stream exactly as
// ReplayConfig delivers it.
//
// The replay is a two-stage pipeline: a decoder goroutine calls d.Next
// into a ring of ringChunks chunk buffers while the calling goroutine
// replays the filled ones strictly in stream order, so reading,
// checksumming and decoding overlap the cache simulation. Only the
// goroutine that decodes changes; the references, their order and the
// replay loop do not, so statistics, probe streams, checkpoints and
// errors are those of decoding and replaying one chunk after the other.
// A decode error is returned once every earlier chunk has replayed.
// Every return waits for the decoder goroutine to exit, so the caller
// owns d and its source again when this returns.
//
// With resume nil it replays d from the top. With resume set (a
// checkpoint a previous, interrupted replay wrote) it refuses a
// checkpoint that names no trace, restores the machine, seeks the
// reader to the recorded chunk boundary — re-validating every skipped
// chunk's checksum on the way — checks that the checkpoint was taken
// from this trace (ErrForeignCheckpoint otherwise), and replays the
// rest; the restore and seek are timed apart from the replay, as
// SeekTime. Either way the returned statistics are bit-identical to an
// uninterrupted replay of the whole stream: the resume protocol's core
// guarantee, pinned by TestResumeBitIdentical and the soak kill/resume
// oracle.
//
// The context is checked between chunks (a few thousand references),
// so cancellation latency is microseconds; a canceled replay returns
// ctx's error with the replayed count, and any checkpoint already
// written remains valid to resume from.
func ReplayReaderResumable(ctx context.Context, d *trace.Reader, ccfg cache.Config, timing bus.Timing, sink probe.Sink, ck CheckpointOptions, resume *machine.Snapshot) (*ReplayOutcome, error) {
	if ck.Every > 0 && ck.Write == nil {
		return nil, fmt.Errorf("bench: checkpointing enabled (every %d refs) without a writer", ck.Every)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	m, ports := newReplayMachine(d.PEs(), d.Layout(), ccfg, timing, sink)
	cr, err := trace.NewChunkReplayer(d.PEs(), ports)
	if err != nil {
		return nil, err
	}

	header := machine.TraceIdentity{PEs: d.PEs(), Layout: d.Layout(), Refs: d.Len()}
	out := &ReplayOutcome{}
	if resume != nil {
		t0 := time.Now()
		switch {
		case resume.RefsReplayed < 0:
			return nil, fmt.Errorf("bench: resume snapshot has negative replay position %d", resume.RefsReplayed)
		case resume.Trace == nil:
			return nil, fmt.Errorf("bench: resume: checkpoint at ref %d names no trace to match this one against", resume.RefsReplayed)
		}
		if err := m.Restore(resume); err != nil {
			return nil, fmt.Errorf("bench: resume: %w", err)
		}
		if err := d.SkipTo(uint64(resume.RefsReplayed)); err != nil {
			return nil, fmt.Errorf("bench: resume seek: %w", err)
		}
		if want, got := resume.Trace, header.At(d.Chain()); *want != *got {
			return nil, fmt.Errorf("bench: resume: checkpoint at ref %d: %w (checkpoint: %v; this trace: %v)",
				resume.RefsReplayed, ErrForeignCheckpoint, want, got)
		}
		out.Refs = uint64(resume.RefsReplayed)
		out.SeekTime = time.Since(t0)
	}

	dec := startDecoder(d)
	defer func() { out.DecodeTime = dec.stop() }()
	var sinceCkpt uint64
	for {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("bench: replay canceled after %d refs: %w", out.Refs, err)
		}
		c := dec.next(&out.StallTime)
		if err := cr.Replay(c.refs, int(out.Refs)); err != nil {
			return out, err
		}
		out.Refs += uint64(len(c.refs))
		sinceCkpt += uint64(len(c.refs))
		dec.free <- c.refs[:cap(c.refs)]
		done := c.err == io.EOF
		if c.err != nil && !done {
			return out, c.err
		}
		if ck.Every > 0 && sinceCkpt >= ck.Every && !done {
			snap := m.Checkpoint()
			snap.RefsReplayed = int(out.Refs)
			snap.Trace = header.At(c.chain)
			if err := ck.Write(snap); err != nil {
				// The previous checkpoint (if any) is intact on disk; the
				// run aborts cleanly rather than continue without the
				// durability it was asked for.
				return out, fmt.Errorf("bench: writing checkpoint at ref %d: %w", out.Refs, err)
			}
			sinceCkpt = 0
		}
		if done {
			break
		}
	}
	out.Bus = m.BusStats()
	out.Cache = m.CacheStats()
	return out, nil
}

// ringChunks is the depth of the stream replay's ring: the decoder runs
// at most this many chunks ahead of the replay. Four absorb a slow read
// or two while the ring (128 KiB of references) stays cache-resident.
const ringChunks = 4

// decoded is one filled ring buffer: the references Next delivered, the
// error it returned with them, and the reader's chunk chain after them
// (the decoder runs ahead, so the replay cannot ask the reader).
type decoded struct {
	refs  []trace.Ref
	err   error
	chain uint32
}

// decoder runs Reader.Next on its own goroutine, into a fixed ring of
// chunk buffers. Until stop returns, only that goroutine touches the
// reader (and the progress hook runs there).
type decoder struct {
	full chan decoded     // filled buffers, in stream order
	free chan []trace.Ref // buffers the replay has finished with
	quit chan struct{}    // closed by stop
	done chan struct{}    // closed when the goroutine exits
	busy time.Duration    // time in Next; read after done is closed
}

func startDecoder(d *trace.Reader) *decoder {
	p := &decoder{
		full: make(chan decoded, ringChunks),
		free: make(chan []trace.Ref, ringChunks),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Each buffer holds one on-disk chunk, so Next decodes straight into
	// it and every hand-off carries exactly one chunk: the checkpoint
	// positions stay on the chunk boundaries a serial loop sees.
	for range ringChunks {
		p.free <- make([]trace.Ref, trace.ChunkRefs)
	}
	go p.run(d)
	return p
}

// run decodes until the stream ends or fails, or stop is called. Both
// channels hold as many entries as there are buffers, so no send blocks.
func (p *decoder) run(d *trace.Reader) {
	defer close(p.done)
	for {
		var buf []trace.Ref
		select {
		case buf = <-p.free:
		case <-p.quit:
			return
		}
		t0 := time.Now()
		n, err := d.Next(buf)
		p.busy += time.Since(t0)
		p.full <- decoded{buf[:n], err, d.Chain()}
		if err != nil {
			return
		}
	}
}

// next returns the next filled buffer in stream order, adding the time
// spent waiting for it, if any, to *stall.
func (p *decoder) next(stall *time.Duration) decoded {
	select {
	case c := <-p.full:
		return c
	default:
	}
	t0 := time.Now()
	c := <-p.full
	*stall += time.Since(t0)
	return c
}

// stop makes the decoder goroutine exit, waits for it, and reports the
// time it spent in Next.
func (p *decoder) stop() time.Duration {
	close(p.quit)
	<-p.done
	return p.busy
}
