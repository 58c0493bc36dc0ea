// Package par provides the bounded worker pool that backs every parallel
// phase of the evaluation harness: bench.Collect runs its live runs and
// trace replays on it (pimbench -jobs), and pimsim its benchmark runs
// (pimsim -jobs). The protocol transition tables (cmd/pimtable) derive
// serially: their experiments are too small for a pool to pay.
//
// The pool is an ordered queue. Tasks start in queue order: Go appends a
// task, and GoNext puts tasks ahead of every task not yet started. So one
// worker runs the job graph in submission order, depth first through
// GoNext. Neither call blocks, so a running task may submit follow-up
// tasks (the record→replay job graph depends on this: a replay job is
// only submitted once the trace it consumes exists, so no worker ever
// sits blocked waiting for an upstream result). After the first task
// error, or once the pool's context is done, queued tasks are dropped
// without running, and Wait returns that first error.
package par

import (
	"context"
	"runtime"
	"slices"
	"sync"
)

// Jobs resolves a job-count knob: n if positive, else
// runtime.GOMAXPROCS(0), one worker per processor the Go scheduler may
// use at once.
func Jobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool runs submitted tasks in queue order with at most a fixed number
// executing at once. The zero value is not usable; call New or NewCtx.
type Pool struct {
	ctx  context.Context
	jobs int
	wg   sync.WaitGroup

	mu      sync.Mutex
	queue   []func() error // tasks not yet started, head first
	workers int            // worker goroutines running
	err     error          // once set, queued and new tasks are dropped
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
	return &Pool{ctx: ctx, jobs: Jobs(jobs)}
}

// Go appends a task to the queue. It never blocks; the task waits for a
// free worker. Tasks submitted after a failure or context cancellation
// are dropped.
func (p *Pool) Go(task func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.queue = append(p.queue, task)
		p.spawn(1)
	}
}

// GoNext inserts tasks, in the order given, ahead of every task not yet
// started. Like Go it never blocks and drops the tasks once the pool has
// failed.
func (p *Pool) GoNext(tasks ...func() error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.queue = slices.Insert(p.queue, 0, tasks...)
		p.spawn(len(tasks))
	}
}

// spawn starts up to n more workers, within the pool's bound. Workers
// exit when the queue is empty, so none idles. The caller holds p.mu.
func (p *Pool) spawn(n int) {
	for ; n > 0 && p.workers < p.jobs; n-- {
		p.workers++
		p.wg.Add(1)
		go p.work()
	}
}

// work runs queued tasks until the queue is empty. A task's slot is
// cleared before it runs, so whatever its closure holds is garbage once
// it returns.
func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.workers--
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()
		err := p.ctx.Err()
		if err == nil {
			err = task()
		}
		if err != nil {
			p.fail(err)
		}
	}
}

// fail records the first error and drops every queued task.
func (p *Pool) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
	}
	clear(p.queue)
	p.queue = nil
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
