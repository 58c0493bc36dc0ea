package par

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestJobs(t *testing.T) {
	if Jobs(3) != 3 {
		t.Error("explicit job count not honoured")
	}
	if Jobs(0) < 1 || Jobs(-1) < 1 {
		t.Error("default job count must be at least one")
	}
	// The default follows GOMAXPROCS, not the CPU count: a run limited
	// to one processor gains nothing from a second worker.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Jobs(0); got != 1 {
		t.Errorf("Jobs(0) = %d under GOMAXPROCS(1), want 1", got)
	}
}

func TestPoolRunsEverything(t *testing.T) {
	p := New(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		p.Go(func() error { n.Add(1); return nil })
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const width = 3
	p := New(width)
	var cur, max atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		p.Go(func() error {
			c := cur.Add(1)
			mu.Lock()
			if c > max.Load() {
				max.Store(c)
			}
			mu.Unlock()
			cur.Add(-1)
			return nil
		})
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > width {
		t.Errorf("observed %d concurrent tasks, pool width %d", m, width)
	}
}

func TestPoolErrorReportedAndStopsLaterWork(t *testing.T) {
	p := New(2)
	boom := errors.New("boom")
	p.Go(func() error { return boom })
	p.Go(func() error { return nil })
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
	// After a failure the pool is canceled: new submissions are dropped.
	var ran atomic.Int64
	p.Go(func() error { ran.Add(1); return nil })
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("second Wait = %v, want boom", err)
	}
	if ran.Load() != 0 {
		t.Error("task submitted after failure still ran")
	}
}

func TestPoolTasksMaySubmitTasks(t *testing.T) {
	// A width-1 pool must not deadlock when a running task submits
	// follow-up work (Go must not block on the worker slot).
	p := New(1)
	var n atomic.Int64
	p.Go(func() error {
		for i := 0; i < 5; i++ {
			p.Go(func() error { n.Add(1); return nil })
		}
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 {
		t.Errorf("follow-up tasks ran %d times, want 5", n.Load())
	}
}

func TestPoolCtxCancelDropsPendingAndReportsErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewCtx(ctx, 1)
	held, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int64
	p.Go(func() error { close(held); <-release; return nil })
	<-held // the blocker holds the only worker
	for i := 0; i < 10; i++ {
		p.Go(func() error { ran.Add(1); return nil })
	}
	cancel()
	close(release)
	if err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d pending tasks ran after context cancellation", ran.Load())
	}
}

func TestPoolCtxTaskErrorWins(t *testing.T) {
	// A task failure before cancellation is the error Wait reports,
	// not the later context error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewCtx(ctx, 2)
	boom := errors.New("boom")
	p.Go(func() error { return boom })
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

// TestPoolOrder pins the order contract: one worker starts tasks in
// submission order, and tasks a running task submits with GoNext start,
// in the order given, before tasks queued earlier with Go.
func TestPoolOrder(t *testing.T) {
	p := New(1)
	var order []string
	task := func(name string) func() error {
		return func() error { order = append(order, name); return nil }
	}
	release := make(chan struct{})
	p.Go(func() error {
		<-release // b, c and d are queued before a submits its follow-ups
		order = append(order, "a")
		p.GoNext(task("a1"), task("a2"))
		return nil
	})
	p.Go(task("b"))
	p.Go(func() error {
		order = append(order, "c")
		p.GoNext(task("c2"))
		p.GoNext(task("c1"))
		return nil
	})
	p.Go(task("d"))
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "a1", "a2", "b", "c", "c1", "c2", "d"}; !slices.Equal(order, want) {
		t.Errorf("start order %v, want %v", order, want)
	}
}
