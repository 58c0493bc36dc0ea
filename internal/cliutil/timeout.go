package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// RunSpec holds the run-bounding flag shared by the simulator
// commands: a wall-clock timeout.
type RunSpec struct {
	Timeout time.Duration // -timeout: cancel the run after this long (0: none)
}

// TimeoutFlags registers -timeout on fs and returns the spec it fills
// (valid after fs.Parse).
func TimeoutFlags(fs *flag.FlagSet) *RunSpec {
	var s RunSpec
	fs.DurationVar(&s.Timeout, "timeout", 0, "abort the run after this wall-clock duration (e.g. 10m; 0 = no limit)")
	return &s
}

// Context builds the run's root context: canceled by SIGINT/SIGTERM
// (so ^C aborts cleanly through the same path as a timeout) and by the
// -timeout deadline when one is set. The returned stop must be called
// on every exit path to release the signal handler.
func (s RunSpec) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if s.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, s.Timeout)
	return ctx, func() { cancel(); stop() }
}

// AbortOnDone is the hard backstop behind cooperative cancellation:
// once ctx is done, the process gets grace to unwind through the
// ordinary error paths; if it is still alive after that — a simulation
// phase that does not check the context, a deadlocked pool — the
// backstop dumps every goroutine's stack to w and exits with status
// 124 (the timeout convention). Call it once after building the run
// context; it is inert until ctx fires and never triggers on a clean
// exit (process exit kills the goroutine).
func AbortOnDone(ctx context.Context, grace time.Duration, w io.Writer) {
	if grace <= 0 {
		grace = 30 * time.Second
	}
	go func() {
		<-ctx.Done()
		timer := time.NewTimer(grace)
		defer timer.Stop()
		<-timer.C
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		fmt.Fprintf(w, "\n=== abort: run did not unwind within %s of cancellation (%v) ===\n%s\n",
			grace, ctx.Err(), buf)
		os.Exit(124)
	}()
}
