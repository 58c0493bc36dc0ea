package bench

import (
	"context"
	"fmt"
	"io"

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
	// Path is where checkpoints land. Each write is atomic (temp +
	// fsync + rename), so a crash at any instant leaves either the
	// previous or the new checkpoint intact — never a torn one.
	Path string
	// Write overrides the checkpoint write (tests inject fault writers
	// here); nil means Snapshot.WriteFile(Path).
	Write func(*machine.Snapshot) error
	// OnCheckpoint runs after each checkpoint is durable, with the
	// absolute replayed-reference count it captured. A non-nil error
	// aborts the replay — the chaos harness returns chaos.ErrKilled
	// here to die at a reproducible point.
	OnCheckpoint func(refs uint64) error
}

// ReplayOutcome is the result of a (possibly resumed) streaming replay.
type ReplayOutcome struct {
	Bus   bus.Stats
	Cache cache.Stats
	// Refs is the absolute reference count the statistics reflect,
	// including references replayed before the resume point.
	Refs uint64
	// Checkpoints counts durable checkpoint writes this run performed.
	Checkpoints int
}

// ReplayReaderResumable replays a serialized stream straight from its
// Reader in chunks, never materializing the reference slice, so
// multi-gigabyte traces replay in constant memory. It supports
// cancellation, periodic durable checkpoints and crash resume; a
// non-nil sink receives the memory-system event stream exactly as
// ReplayConfigProbed delivers it.
//
// With resume nil it replays d from the top. With resume set (a
// snapshot a previous, interrupted run checkpointed — by this stats-only
// replay or by an older data-carrying one) it restores the machine,
// seeks the reader to the recorded position — re-validating every
// skipped chunk's checksum on the way — and replays the rest.
// Either way the returned statistics are bit-identical to an
// uninterrupted replay of the whole stream: the resume protocol's
// core guarantee, pinned by TestResumeBitIdentical and the soak
// kill/resume oracle.
//
// The context is checked between chunks (a few thousand references),
// so cancellation latency is microseconds; a canceled replay returns
// ctx's error with the replayed count, and any checkpoint already
// written remains valid to resume from.
func ReplayReaderResumable(ctx context.Context, d *trace.Reader, ccfg cache.Config, timing bus.Timing, sink probe.Sink, ck CheckpointOptions, resume *machine.Snapshot) (*ReplayOutcome, error) {
	if ck.Every > 0 && ck.Path == "" && ck.Write == nil {
		return nil, fmt.Errorf("bench: checkpointing enabled (every %d refs) without a path", ck.Every)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	write := ck.Write
	if write == nil && ck.Every > 0 {
		write = func(s *machine.Snapshot) error { return s.WriteFile(ck.Path) }
	}

	m, cr, err := newReplayMachine(d.PEs(), d.Layout(), ccfg, timing, sink)
	if err != nil {
		return nil, err
	}

	out := &ReplayOutcome{}
	if resume != nil {
		if resume.RefsReplayed < 0 {
			return nil, fmt.Errorf("bench: resume snapshot has negative replay position %d", resume.RefsReplayed)
		}
		if err := m.Restore(resume); err != nil {
			return nil, fmt.Errorf("bench: resume: %w", err)
		}
		if err := d.SkipTo(uint64(resume.RefsReplayed)); err != nil {
			return nil, fmt.Errorf("bench: resume seek: %w", err)
		}
		out.Refs = uint64(resume.RefsReplayed)
	}

	chunk := make([]trace.Ref, 4096)
	var sinceCkpt uint64
	for {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("bench: replay canceled after %d refs: %w", out.Refs, err)
		}
		n, rerr := d.Next(chunk)
		if n > 0 {
			if err := cr.Replay(chunk[:n], int(out.Refs)); err != nil {
				return out, err
			}
			out.Refs += uint64(n)
			sinceCkpt += uint64(n)
		}
		done := rerr == io.EOF
		if rerr != nil && !done {
			return out, rerr
		}
		if ck.Every > 0 && sinceCkpt >= ck.Every && !done {
			snap := m.Checkpoint()
			snap.RefsReplayed = int(out.Refs)
			if err := write(snap); err != nil {
				// The previous checkpoint (if any) is intact on disk; the
				// run aborts cleanly rather than continue without the
				// durability it was asked for.
				return out, fmt.Errorf("bench: writing checkpoint at ref %d: %w", out.Refs, err)
			}
			out.Checkpoints++
			sinceCkpt = 0
			if ck.OnCheckpoint != nil {
				if err := ck.OnCheckpoint(out.Refs); err != nil {
					return out, err
				}
			}
		}
		if done {
			break
		}
	}
	out.Bus = m.BusStats()
	out.Cache = m.CacheStats()
	return out, nil
}
