// Package synth generates synthetic memory-reference streams modelling
// parallel logic programming architectures other than KL1. The paper
// argues (Sections 1-2, citing Tick's Aurora study) that the PIM cache's
// optimizations carry over to WAM-based systems such as OR-parallel
// Prolog; these generators provide workloads with those architectures'
// characteristic access patterns so the claim can be tested by replaying
// them across cache configurations:
//
//   - SeqProlog: a sequential WAM — bursty heap structure creation,
//     LIFO environment locality, and backtracking that rewinds the heap
//     and rewrites reclaimed space (high write bandwidth, the paper's
//     motivation for copy-back).
//   - ORParallel: Aurora-like workers sharing a read-mostly program area,
//     binding privately, taking tasks from a locked shared queue, and
//     copying task state from other workers' caches.
//   - MessageRing: PEs exchanging two-word messages around a ring — the
//     pure RI scenario.
//
// Generators emit legal serialized streams: locks are acquired and
// released in program order and DW is issued only at fresh (never shared)
// block-aligned addresses, so replays satisfy the same software contracts
// the KL1 runtime guarantees.
package synth

import (
	"math/rand"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/trace"
)

// Config parameterizes a generator.
type Config struct {
	// Layout positions the storage areas (areas are used the same way as
	// by the KL1 runtime: heap for terms, goal for task records, comm
	// for messages).
	Layout mem.Layout
	// PEs is the number of processors (SeqProlog uses one).
	PEs int
	// Events is the approximate number of references to generate.
	Events int
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultConfig returns a moderate workload.
func DefaultConfig() Config {
	return Config{
		Layout: mem.Layout{InstWords: 16 << 10, HeapWords: 1 << 20,
			GoalWords: 128 << 10, SuspWords: 16 << 10, CommWords: 16 << 10},
		PEs:    8,
		Events: 200_000,
		Seed:   1,
	}
}

// builder accumulates a trace while tracking per-PE allocation frontiers
// so direct writes stay on fresh blocks.
type builder struct {
	// refs is the stream so far; a field of its own rather than tr.Refs
	// keeps emit within the compiler's inlining budget.
	refs   []trace.Ref
	tr     trace.Trace // PEs and Layout; done adds refs
	bounds mem.Bounds
	heap   []word.Addr // per-PE bump pointers
	heapHi []word.Addr
	hwm    []word.Addr // all-time high-water marks: only words above the
	// mark have never been touched and qualify for DW
}

func newBuilder(c Config) *builder {
	b := &builder{
		// Each generator stops within one step of Events; the largest
		// step is a message-ring round of 5 refs per PE.
		refs:   make([]trace.Ref, 0, c.Events+5*c.PEs),
		tr:     trace.Trace{PEs: c.PEs, Layout: c.Layout},
		bounds: c.Layout.Bounds(),
	}
	heapBase := b.bounds.HeapBase
	span := (b.bounds.GoalBase - heapBase) / word.Addr(c.PEs)
	for i := 0; i < c.PEs; i++ {
		lo := heapBase + word.Addr(i)*span
		b.heap = append(b.heap, lo)
		b.heapHi = append(b.heapHi, lo+span)
		b.hwm = append(b.hwm, lo)
	}
	return b
}

func (b *builder) emit(pe int, op cache.Op, a word.Addr) {
	b.refs = append(b.refs, trace.MakeRef(uint8(pe), op, b.bounds.AreaOf(a), a))
}

// done returns the finished trace.
func (b *builder) done() *trace.Trace {
	b.tr.Refs = b.refs
	return &b.tr
}

// alloc reserves n heap words for pe, wrapping to the segment base when
// it fills (the wrapped region is below the high-water mark, so DW no
// longer applies there).
func (b *builder) alloc(pe, n int) word.Addr {
	base := b.heap[pe]
	if base+word.Addr(n) >= b.heapHi[pe] {
		base = b.heapBase(pe)
		b.heap[pe] = base
	}
	b.heap[pe] += word.Addr(n)
	return base
}

func (b *builder) heapBase(pe int) word.Addr {
	span := (b.bounds.GoalBase - b.bounds.HeapBase) / word.Addr(len(b.heap))
	return b.bounds.HeapBase + word.Addr(pe)*span
}

// createTerm emits the writes building an n-word structure, using DW for
// never-touched words (above the high-water mark — the software contract
// that no cache can hold them) and W for reused space, and returns the
// structure's address.
func (b *builder) createTerm(pe, n int) word.Addr {
	a := b.alloc(pe, n)
	for i := 0; i < n; i++ {
		w := a + word.Addr(i)
		if w >= b.hwm[pe] {
			b.emit(pe, cache.OpDW, w)
		} else {
			b.emit(pe, cache.OpW, w)
		}
	}
	if end := a + word.Addr(n); end > b.hwm[pe] {
		b.hwm[pe] = end
	}
	return a
}

// SeqProlog generates a single-PE WAM-like stream: create structures on
// the heap, dereference recent terms, push/pop environment frames, and
// periodically backtrack — rewinding the allocation frontier and
// rewriting the reclaimed region (which is why DW cannot be used there:
// stale copies may exist, exactly the paper's block-boundary restriction).
func SeqProlog(c Config) *trace.Trace {
	c.PEs = 1
	b := newBuilder(c)
	rng := rand.New(rand.NewSource(c.Seed))
	var recent []word.Addr
	var frames []word.Addr
	envTop := b.bounds.GoalBase // use the goal area as the WAM local stack
	var choicePoints []word.Addr

	for len(b.refs) < c.Events {
		switch r := rng.Intn(100); {
		case r < 35: // build a structure
			n := 2 + rng.Intn(5)
			a := b.createTerm(0, n)
			recent = append(recent, a)
			if len(recent) > 64 {
				recent = recent[1:]
			}
		case r < 70: // dereference a recent term (temporal locality)
			if len(recent) == 0 {
				continue
			}
			a := recent[len(recent)-1-rng.Intn(min(len(recent), 8))]
			for i := 0; i < 1+rng.Intn(3); i++ {
				b.emit(0, cache.OpR, a+word.Addr(i))
			}
		case r < 85: // push an environment frame (LIFO)
			size := 3 + rng.Intn(4)
			if envTop+word.Addr(size) > b.bounds.End {
				// Stack overflow: the frame would run past the end of
				// the layout, so unwind every frame (a restart) instead
				// of emitting addresses no machine has.
				frames = frames[:0]
				envTop = b.bounds.GoalBase
			}
			for i := 0; i < size; i++ {
				b.emit(0, cache.OpW, envTop+word.Addr(i))
			}
			frames = append(frames, envTop)
			envTop += word.Addr(size)
		case r < 95: // return: read then pop the frame
			if len(frames) == 0 {
				continue
			}
			f := frames[len(frames)-1]
			frames = frames[:len(frames)-1]
			for a := f; a < envTop; a++ {
				b.emit(0, cache.OpR, a)
			}
			envTop = f
		default: // choice point / backtrack
			if len(choicePoints) == 0 || rng.Intn(2) == 0 {
				choicePoints = append(choicePoints, b.heap[0])
			} else {
				// Backtrack: rewind the heap. The reclaimed region is
				// below the high-water mark, so re-creations there use
				// plain W (stale cached copies may exist — the paper's
				// DW block-boundary restriction).
				b.heap[0] = choicePoints[len(choicePoints)-1]
				choicePoints = choicePoints[:len(choicePoints)-1]
			}
		}
	}
	return b.done()
}

// ORParallel generates an Aurora-like multi-worker stream: a shared
// read-mostly "program" region, a locked shared task queue, private
// binding writes, and task-state copying between workers.
func ORParallel(c Config) *trace.Trace {
	b := newBuilder(c)
	rng := rand.New(rand.NewSource(c.Seed))
	program := b.bounds.InstBase // shared clauses: read-only region
	programWords := word.Addr(c.Layout.InstWords)
	queue := b.bounds.GoalBase // task queue: lock word + entries

	for len(b.refs) < c.Events {
		pe := rng.Intn(c.PEs)
		switch r := rng.Intn(100); {
		case r < 40: // clause lookup: shared read-mostly area
			a := program + word.Addr(rng.Intn(int(programWords)))
			b.emit(pe, cache.OpR, a)
		case r < 70: // private binding work: create + read own terms
			a := b.createTerm(pe, 2+rng.Intn(3))
			b.emit(pe, cache.OpR, a)
		case r < 85: // take a task from the locked shared queue
			slot := queue + word.Addr(rng.Intn(16))*4
			b.emit(pe, cache.OpLR, slot)
			b.emit(pe, cache.OpR, slot+1)
			b.emit(pe, cache.OpUW, slot)
		default: // copy task state published by another worker
			victim := rng.Intn(c.PEs)
			if victim == pe {
				continue
			}
			src := b.createTerm(victim, 4) // victim publishes
			for i := 0; i < 4; i++ {
				b.emit(pe, cache.OpR, src+word.Addr(i)) // worker copies in
			}
		}
	}
	return b.done()
}

// MessageRing generates PEs passing two-word messages around a ring
// through the communication area, the read-invalidate scenario: each slot
// is read and immediately rewritten by the receiver.
func MessageRing(c Config) *trace.Trace {
	b := newBuilder(c)
	slot := func(pe int) word.Addr {
		return b.bounds.CommBase + word.Addr(pe*4)
	}
	for len(b.refs) < c.Events {
		for pe := 0; pe < c.PEs; pe++ {
			next := (pe + 1) % c.PEs
			// Send: write payload then status into the next PE's slot.
			b.emit(pe, cache.OpW, slot(next)+1)
			b.emit(pe, cache.OpW, slot(next))
			// Receive: RI the status (the block is about to be
			// rewritten), read the payload, reset the status.
			b.emit(next, cache.OpRI, slot(next))
			b.emit(next, cache.OpR, slot(next)+1)
			b.emit(next, cache.OpW, slot(next))
		}
	}
	return b.done()
}
