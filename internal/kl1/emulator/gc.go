package emulator

import (
	"fmt"

	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
)

// Stop-and-copy garbage collection.
//
// The paper's system "uses stop-and-copy GC" (Section 4); this file
// implements it as a semispace Cheney collector over all PEs' heap
// segments. It runs when a PE's allocation fails, stopping the world —
// trivially sound here because the machine is deterministic and
// single-threaded, and heap allocation only happens at safe points where
// every live heap pointer is reachable from the root set:
//
//   - every engine's register file and suspension-candidate list,
//   - queued goal records (each PE's goal list),
//   - the floating record of an in-progress suspension,
//   - goal records in transit in communication-area reply slots,
//   - and, transitively, floating goal records hooked on live variables
//     (reached through TagHook cells during the copy).
//
// The object model needs no headers: a heap pointer's tag gives the
// object extent (Ref -> one cell, List -> two, Struct -> functor+arity),
// and the runtime never creates interior pointers — unbound variables
// are always standalone single-cell objects, never slots of a pair or
// structure (the compiler allocates fresh variables with put_var and
// stores references to them).
//
// GC reads and writes memory directly and flushes/invalidates every
// cache first, so it generates no simulated bus traffic; the paper's
// measurements likewise instrument mutator references only.

// GCStats counts collector activity.
type GCStats struct {
	Collections uint64
	WordsCopied uint64
}

// gcState is the cluster-wide collector state (in Shared).
type gcState struct {
	enabled bool
	// flushCaches writes back and invalidates every cache; wired by the
	// Cluster (the emulator does not know about the machine directly).
	flushCaches func()
	// checkLocks reports any held word lock (GC must see none).
	checkLocks func() error
	engines    []*Engine
	stats      GCStats

	// Per-collection working state.
	scanned map[word.Addr]bool // goal records already scanned
}

// GCStats reports collector activity.
func (sh *Shared) GCStats() GCStats { return sh.gc.stats }

// register adds an engine to the root set.
func (sh *Shared) register(e *Engine) { sh.gc.engines = append(sh.gc.engines, e) }

// collectGarbage runs a full collection. It returns an error when live
// data does not fit the to-spaces.
func (sh *Shared) collectGarbage() error {
	gc := &sh.gc
	if !gc.enabled {
		return fmt.Errorf("heap exhausted (garbage collection disabled)")
	}
	if gc.checkLocks != nil {
		if err := gc.checkLocks(); err != nil {
			return err
		}
	}
	if gc.flushCaches != nil {
		gc.flushCaches()
	}
	gc.stats.Collections++
	gc.scanned = make(map[word.Addr]bool)

	// Flip every engine's semispace; allocation proceeds in to-space.
	for _, e := range gc.engines {
		e.heap.Flip()
	}
	// Roots: registers, candidates, in-progress suspension records,
	// queued goal records, in-transit reply payloads.
	for _, e := range gc.engines {
		for i := range e.regs {
			w, err := sh.forward(e.regs[i], e)
			if err != nil {
				return err
			}
			e.regs[i] = w
		}
		for i, cell := range e.candidates {
			nw, err := sh.forward(word.Ref(cell), e)
			if err != nil {
				return err
			}
			e.candidates[i] = nw.Addr()
		}
		if e.suspRec != 0 {
			if err := sh.scanGoalRecord(e.suspRec, e); err != nil {
				return err
			}
		}
		for rec := e.goalHead; rec != word.NilAddr; {
			if err := sh.scanGoalRecord(rec, e); err != nil {
				return err
			}
			link := sh.Mem.Read(rec + goalLinkOff)
			if link.Tag() != word.TagGoal {
				break
			}
			rec = link.Addr()
		}
	}
	for pe := 0; pe < sh.NumPEs; pe++ {
		slot := sh.replySlot(pe)
		payload := sh.Mem.Read(slot + slotValueOff)
		if payload.Tag() == word.TagGoal {
			if err := sh.scanGoalRecord(payload.Addr(), sh.gc.engines[pe]); err != nil {
				return err
			}
		}
	}
	// Cheney scan: drain every to-space until no gray cells remain.
	for {
		progress := false
		for _, e := range gc.engines {
			for e.heap.Scan < e.heap.Next {
				a := e.heap.Scan
				e.heap.Scan++
				progress = true
				w := sh.Mem.Read(a)
				if w.IsVar() {
					// Variable cells were fixed up at copy time (the
					// unbound self-reference or hook payload is already
					// correct); forwarding the raw word would turn it
					// into a self-referential Ref.
					continue
				}
				nw, err := sh.forward(w, e)
				if err != nil {
					return err
				}
				sh.Mem.Write(a, nw)
			}
		}
		if !progress {
			break
		}
	}
	gc.scanned = nil
	return nil
}

// forward copies the object w points at into to-space (if it is a
// from-space heap pointer) and returns the updated word. owner chooses
// whose to-space receives objects with no prior segment owner.
func (sh *Shared) forward(w word.Word, owner *Engine) (word.Word, error) {
	switch w.Tag() {
	case word.TagRef:
		na, err := sh.copyObject(w.Addr(), 1, owner)
		if err != nil {
			return 0, err
		}
		return word.Ref(na), nil
	case word.TagList:
		na, err := sh.copyObject(w.Addr(), 2, owner)
		if err != nil {
			return 0, err
		}
		return word.List(na), nil
	case word.TagStruct:
		f := sh.readForwardableFunctor(w.Addr())
		na, err := sh.copyObject(w.Addr(), 1+f.FunctorArity(), owner)
		if err != nil {
			return 0, err
		}
		return word.Struct(na), nil
	case word.TagUnbound:
		// A raw unbound cell word outside its cell (register view):
		// forward the cell it names.
		na, err := sh.copyObject(w.Addr(), 1, owner)
		if err != nil {
			return 0, err
		}
		return word.Ref(na), nil
	default:
		return w, nil
	}
}

// readForwardableFunctor reads a structure's functor even if the object
// was already evacuated (following the broken heart).
func (sh *Shared) readForwardableFunctor(a word.Addr) word.Word {
	w := sh.Mem.Read(a)
	if w.Tag() == word.TagFree { // broken heart: functor lives in to-space
		return sh.Mem.Read(w.Addr())
	}
	return w
}

// copyObject evacuates n cells starting at a into to-space, returning the
// new address. Already-moved objects are recognized by the broken-heart
// marker (a TagFree word, which never occurs in live heap data).
func (sh *Shared) copyObject(a word.Addr, n int, owner *Engine) (word.Addr, error) {
	if sh.bounds.AreaOf(a) != mem.AreaHeap {
		return a, nil // instruction/goal/susp/comm pointers do not move
	}
	dst := sh.heapOwner(a, owner)
	if a >= dst.heap.Base && a < dst.heap.Limit {
		return a, nil // already in to-space
	}
	first := sh.Mem.Read(a)
	if first.Tag() == word.TagFree {
		return first.Addr(), nil
	}
	na, ok := dst.heap.Alloc(n)
	if !ok {
		return 0, fmt.Errorf("PE %d to-space overflow during GC", dst.pe)
	}
	sh.gc.stats.WordsCopied += uint64(n)
	for i := 0; i < n; i++ {
		sh.Mem.Write(na+word.Addr(i), sh.Mem.Read(a+word.Addr(i)))
	}
	sh.Mem.Write(a, word.Free(na)) // broken heart
	// Self-referential unbound variables must keep naming their own cell;
	// hooked variables drag their suspended goals along.
	moved := sh.Mem.Read(na)
	switch moved.Tag() {
	case word.TagUnbound:
		sh.Mem.Write(na, word.Unbound(na))
	case word.TagHook:
		if err := sh.scanHooks(moved.Addr(), dst); err != nil {
			return 0, err
		}
	}
	return na, nil
}

// heapOwner returns the engine whose segment contains a (for locality,
// objects stay with their allocating PE), falling back to the requester.
func (sh *Shared) heapOwner(a word.Addr, fallback *Engine) *Engine {
	for _, e := range sh.gc.engines {
		if a >= e.heap.Base && a < e.heap.Limit {
			return e
		}
		if a >= e.heap.OtherBase() && a < e.heap.OtherLimit() {
			return e
		}
	}
	return fallback
}

// scanHooks walks a suspension chain, forwarding the argument words of
// every still-floating goal record it wakes up to keep alive.
func (sh *Shared) scanHooks(susp word.Addr, owner *Engine) error {
	for susp != word.NilAddr {
		goalW := sh.Mem.Read(susp + suspGoalOff)
		if goalW.Tag() == word.TagGoal {
			status := sh.Mem.Read(goalW.Addr() + goalStatusOff)
			if status.Tag() == word.TagInt && status.IntVal() == statusFloating {
				if err := sh.scanGoalRecord(goalW.Addr(), owner); err != nil {
					return err
				}
			}
		}
		next := sh.Mem.Read(susp + suspNextOff)
		if next.Tag() != word.TagSusp {
			break
		}
		susp = next.Addr()
	}
	return nil
}

// scanGoalRecord forwards a goal record's argument words in place.
func (sh *Shared) scanGoalRecord(rec word.Addr, owner *Engine) error {
	if sh.gc.scanned[rec] {
		return nil
	}
	sh.gc.scanned[rec] = true
	header := sh.Mem.Read(rec + goalHeaderOff)
	arity := int(header.Payload() & 0xFFFF)
	if arity > MaxRecordArity {
		return fmt.Errorf("gc: corrupt goal record at %#x (arity %d)", rec, arity)
	}
	for i := 0; i < arity; i++ {
		a := rec + goalArgsOff + word.Addr(i)
		w, err := sh.forward(sh.Mem.Read(a), owner)
		if err != nil {
			return err
		}
		sh.Mem.Write(a, w)
	}
	return nil
}

// MaxRecordArity bounds goal record argument counts (see the record
// layout).
const MaxRecordArity = GoalRecordWords - goalArgsOff
