// Package par provides the bounded worker pool that backs every parallel
// phase of the evaluation harness: the benchmark harness fans live runs
// and trace replays out across it (internal/bench, behind pimbench and
// pimsim -jobs). The protocol transition tables (cmd/pimtable) derive
// serially: their experiments are too small for a pool to pay.
//
// The pool bounds *concurrency*, not submission: Go never blocks, so a
// running task may safely submit follow-up tasks (the record→replay job
// graph depends on this — a replay job is only submitted once the trace
// it consumes exists, so no worker ever sits blocked waiting for an
// upstream result). After the first task error the pool cancels: queued
// tasks are dropped without running, and Wait returns that first error.
package par

import (
	"context"
	"runtime"
	"sync"
)

// Jobs resolves a job-count knob: n if positive, else runtime.NumCPU().
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Pool runs submitted tasks with at most a fixed number executing at
// once. The zero value is not usable; call New or NewCtx.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
	ctx context.Context

	mu       sync.Mutex
	err      error
	canceled bool
}

// New returns a pool executing at most Jobs(jobs) tasks concurrently.
func New(jobs int) *Pool {
	return NewCtx(context.Background(), jobs)
}

// NewCtx is New bound to a context: once ctx is done, tasks that have
// not yet started are dropped without running, and Wait returns
// ctx.Err() (unless a task failed first). Running tasks are not
// interrupted — simulations check the context themselves at their own
// safe points.
func NewCtx(ctx context.Context, jobs int) *Pool {
	return &Pool{sem: make(chan struct{}, Jobs(jobs)), ctx: ctx}
}

// Go submits a task. It never blocks; the task waits for a free worker
// slot. Tasks submitted after a failure, a Cancel, or context
// cancellation are dropped.
func (p *Pool) Go(task func() error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		if err := p.ctx.Err(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.canceled = true
			p.mu.Unlock()
			return
		}
		p.mu.Lock()
		dead := p.canceled
		p.mu.Unlock()
		if dead {
			return
		}
		if err := task(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.canceled = true
			p.mu.Unlock()
		}
	}()
}

// Cancel drops every task that has not yet started. Running tasks finish.
func (p *Pool) Cancel() {
	p.mu.Lock()
	p.canceled = true
	p.mu.Unlock()
}

// Wait blocks until every submitted task has finished or been dropped,
// and returns the first task error. The pool must not be reused after
// Wait returns if any task could still submit more work.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}
