package emulator

import (
	"fmt"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// Stats counts one engine's high-level events (the paper's Table 1
// metrics).
type Stats struct {
	Instructions uint64 // abstract instructions executed
	Reductions   uint64 // committed goal reductions (incl. builtins)
	Suspensions  uint64 // goals suspended on unbound variables
	Resumptions  uint64 // goals woken by bindings
	Spawns       uint64 // goal records created
	GoalsSent    uint64 // goals donated to other PEs
	GoalsStolen  uint64 // goals received from other PEs
}

// Engine is one PE's reduction engine. It implements machine.Processor;
// each Step executes one abstract instruction (or one scheduler action),
// which is the interleaving granularity of the deterministic machine.
type Engine struct {
	pe  int
	sh  *Shared
	acc mem.Accessor

	heap   *mem.Bump
	goalFL *mem.FreeList
	suspFL *mem.FreeList

	regs [compile.NumRegs]word.Word

	// goalHead is the goal-list head register; goalCount mirrors the
	// list length for the scheduler.
	goalHead  word.Addr
	goalCount int

	// Reduction state. pc==0 means "between reductions".
	pc       word.Addr
	failPC   word.Addr
	curProc  int
	curArity int
	// candidates are the suspension-candidate variable cells collected
	// during the passive part of the current reduction.
	candidates []word.Addr

	// Suspension in progress (multi-step because hooking each variable
	// takes its lock, which can busy-wait).
	suspRec  word.Addr // goal record being suspended; 0 = none
	suspIdx  int       // next candidate to hook
	suspAny  bool      // at least one candidate was hooked or found bound
	suspWake bool      // a candidate was already bound: requeue the goal

	// Builtin goal being executed (retried as a unit if a lock blocks).
	builtinProc  int // 0 = none
	builtinArity int

	// Scheduler state.
	started     bool
	waitingOn   int // PE a work request was sent to; -1 = none
	pollCursor  int
	sincePoll   int
	stats       Stats
	maxInstrHit bool
}

// newEngine builds PE pe's engine over its cache port and attaches per-PE
// allocators (free lists are initialized directly in memory: boot time).
func newEngine(sh *Shared, pe int, acc mem.Accessor) (*Engine, error) {
	if err := sh.commCapacity(); err != nil {
		return nil, err
	}
	hLo, hHi := sh.heapSegment(pe)
	gLo, gHi := sh.goalSegment(pe)
	sLo, sHi := sh.suspSegment(pe)
	heap := mem.NewBump(hLo, hHi)
	if sh.gc.enabled {
		heap = mem.NewSemispace(hLo, hHi)
	}
	e := &Engine{
		pe:        pe,
		sh:        sh,
		acc:       acc,
		heap:      heap,
		goalFL:    mem.NewFreeList(sh.Mem, gLo, gHi, GoalRecordWords),
		suspFL:    mem.NewFreeList(sh.Mem, sLo, sHi, SuspRecordWords),
		goalHead:  word.NilAddr,
		waitingOn: -1,
	}
	if e.goalFL.Capacity() == 0 || e.suspFL.Capacity() == 0 {
		return nil, fmt.Errorf("emulator: PE %d record areas too small", pe)
	}
	if pe == 0 {
		// The initial query: main/0 starts on PE 0.
		sh.liveGoals++
	}
	sh.register(e)
	return e, nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Step implements machine.Processor.
func (e *Engine) Step() machine.Status {
	if e.sh.failed {
		return machine.StatusFailed
	}
	if e.sh.Cfg.MaxInstr > 0 && e.stats.Instructions > e.sh.Cfg.MaxInstr {
		e.sh.fail(fmt.Sprintf("PE %d exceeded instruction limit", e.pe))
		return machine.StatusFailed
	}
	switch {
	case e.suspRec != 0:
		e.continueSuspend()
	case e.builtinProc != 0:
		e.execBuiltin()
	case e.pc == 0:
		return e.schedule()
	default:
		e.execInstruction()
	}
	if e.sh.failed {
		return machine.StatusFailed
	}
	return machine.StatusRunning
}

// beginReduction enters a procedure with arguments already in X0..
func (e *Engine) beginReduction(procIdx, arity int) {
	e.curProc, e.curArity = procIdx, arity
	e.pc = e.sh.entryAddr(procIdx)
	e.candidates = e.candidates[:0]
}

// endReductionChain finishes the current goal's chain of reductions.
func (e *Engine) endReductionChain() {
	e.pc = 0
	e.sh.liveGoals--
}

// fetch reads the instruction word at a (a simulated instruction-area
// reference).
func (e *Engine) fetch(a word.Addr) word.Word { return e.acc.Read(a) }

// execInstruction runs the instruction at pc. Instructions that block on
// a remote lock return with pc unchanged; the machine skips this PE until
// the unlock broadcast arrives, and the instruction re-executes from
// scratch (blocking always happens before any destructive effect).
func (e *Engine) execInstruction() {
	w := e.fetch(e.pc)
	op, a, b, c := compile.Decode(w)
	e.stats.Instructions++
	next := e.pc + 1
	if op.HasImmediate() {
		next++
	}
	switch op {
	case compile.OpNop:

	case compile.OpTry:
		e.failPC = e.sh.bounds.InstBase + word.Addr(a<<16|b)

	case compile.OpOtherwise:
		if len(e.candidates) > 0 {
			e.startSuspend()
			return
		}

	case compile.OpCommit:
		e.candidates = e.candidates[:0]
		e.stats.Reductions++
		e.pollRequests()

	case compile.OpProceed:
		e.endReductionChain()
		return

	case compile.OpExec:
		copy(e.regs[0:b], e.regs[c:c+b])
		e.beginReduction(a, b)
		return

	case compile.OpSpawn:
		if !e.spawnGoal(a, b, c) {
			return // blocked or failed
		}

	case compile.OpSuspend:
		if len(e.candidates) == 0 {
			e.sh.fail(fmt.Sprintf("goal %s failed: no clause applies",
				e.procName(e.curProc)))
			return
		}
		e.startSuspend()
		return

	case compile.OpWaitConst:
		imm := e.fetch(e.pc + 1)
		v, cell := e.deref(e.regs[a])
		switch {
		case cell != 0:
			e.failMatch(cell)
			return
		case v != imm:
			e.failClause()
			return
		}

	case compile.OpWaitList:
		v, cell := e.deref(e.regs[a])
		switch {
		case cell != 0:
			e.failMatch(cell)
			return
		case v.Tag() != word.TagList:
			e.failClause()
			return
		default:
			e.regs[b] = e.loadCell(v.Addr())
			e.regs[c] = e.loadCell(v.Addr() + 1)
		}

	case compile.OpWaitStruct:
		imm := e.fetch(e.pc + 1)
		v, cell := e.deref(e.regs[a])
		switch {
		case cell != 0:
			e.failMatch(cell)
			return
		case v.Tag() != word.TagStruct:
			e.failClause()
			return
		default:
			f := e.acc.Read(v.Addr())
			if f != imm {
				e.failClause()
				return
			}
			for i := 0; i < f.FunctorArity(); i++ {
				e.regs[b+i] = e.loadCell(v.Addr() + 1 + word.Addr(i))
			}
		}

	case compile.OpWaitVar:
		if _, cell := e.deref(e.regs[a]); cell != 0 {
			e.failMatch(cell)
			return
		}

	case compile.OpMatchEq:
		switch e.passiveEqual(e.regs[a], e.regs[b]) {
		case matchFail:
			e.failClause()
			return
		case matchSuspend:
			e.failClause() // candidates were recorded by passiveEqual
			return
		}

	case compile.OpGuardCmp:
		l, lc := e.deref(e.regs[b])
		r, rc := e.deref(e.regs[c])
		if lc != 0 || rc != 0 {
			if lc != 0 {
				e.addCandidate(lc)
			}
			if rc != 0 {
				e.addCandidate(rc)
			}
			e.failClause()
			return
		}
		if l.Tag() != word.TagInt || r.Tag() != word.TagInt {
			e.failClause()
			return
		}
		if !compareInts(a, l.IntVal(), r.IntVal()) {
			e.failClause()
			return
		}

	case compile.OpGuardType:
		v, cell := e.deref(e.regs[b])
		if cell != 0 {
			e.failMatch(cell)
			return
		}
		ok := false
		switch a {
		case compile.TypeInteger:
			ok = v.Tag() == word.TagInt
		case compile.TypeAtom:
			ok = v.Tag() == word.TagAtom
		case compile.TypeList:
			ok = v.Tag() == word.TagList || v.Tag() == word.TagNil
		}
		if !ok {
			e.failClause()
			return
		}

	case compile.OpPutConst:
		e.regs[a] = e.fetch(e.pc + 1)

	case compile.OpPutVar:
		cell, ok := e.allocHeap(1)
		if !ok {
			return
		}
		e.acc.DirectWrite(cell, word.Unbound(cell))
		e.regs[a] = word.Ref(cell)

	case compile.OpPutList:
		addr, ok := e.allocHeap(2)
		if !ok {
			return
		}
		e.acc.DirectWrite(addr, e.regs[b])
		e.acc.DirectWrite(addr+1, e.regs[c])
		e.regs[a] = word.List(addr)

	case compile.OpPutStruct:
		f := e.fetch(e.pc + 1)
		n := f.FunctorArity()
		addr, ok := e.allocHeap(1 + n)
		if !ok {
			return
		}
		e.acc.DirectWrite(addr, f)
		for i := 0; i < n; i++ {
			e.acc.DirectWrite(addr+1+word.Addr(i), e.regs[b+i])
		}
		e.regs[a] = word.Struct(addr)

	case compile.OpMove:
		e.regs[a] = e.regs[b]

	case compile.OpUnify:
		switch e.unify(e.regs[a], e.regs[b]) {
		case unifyBlocked:
			return // retry this instruction after the unlock
		case unifyFailed:
			e.sh.fail(fmt.Sprintf("unification failed in %s", e.procName(e.curProc)))
			return
		}

	case compile.OpArith:
		xs, xt := c>>8, c&0xFF
		l, lc := e.deref(e.regs[xs])
		r, rc := e.deref(e.regs[xt])
		if lc != 0 || rc != 0 || l.Tag() != word.TagInt || r.Tag() != word.TagInt {
			e.sh.fail(fmt.Sprintf("arithmetic on non-integer in %s", e.procName(e.curProc)))
			return
		}
		v, err := evalArith(a, l.IntVal(), r.IntVal())
		if err != nil {
			e.sh.fail(fmt.Sprintf("%v in %s", err, e.procName(e.curProc)))
			return
		}
		e.regs[b] = word.Int(v)

	default:
		panic(fmt.Sprintf("emulator: PE %d: bad opcode %v at %#x", e.pe, op, e.pc))
	}
	e.pc = next
}

// failMatch records a suspension candidate and fails the clause.
func (e *Engine) failMatch(cell word.Addr) {
	e.addCandidate(cell)
	e.failClause()
}

// failClause jumps to the next clause (or the procedure's suspend point).
func (e *Engine) failClause() { e.pc = e.failPC }

func (e *Engine) addCandidate(cell word.Addr) {
	for _, c := range e.candidates {
		if c == cell {
			return
		}
	}
	e.candidates = append(e.candidates, cell)
}

// allocHeap bump-allocates n heap words. On exhaustion it runs the
// stop-and-copy collector (when enabled) and retries; a second failure
// means live data genuinely exceeds the heap and the program aborts.
// Allocation sites are GC safe points: every live heap pointer is in a
// register, a candidate list, or a reachable record.
func (e *Engine) allocHeap(n int) (word.Addr, bool) {
	if a, ok := e.heap.Alloc(n); ok {
		return a, true
	}
	if err := e.sh.collectGarbage(); err != nil {
		e.sh.fail(fmt.Sprintf("PE %d heap exhausted: %v", e.pe, err))
		return 0, false
	}
	a, ok := e.heap.Alloc(n)
	if !ok {
		e.sh.fail(fmt.Sprintf("PE %d heap exhausted even after GC", e.pe))
		return 0, false
	}
	return a, true
}

func (e *Engine) procName(idx int) string {
	if compile.IsBuiltin(idx) {
		switch {
		case idx >= compile.BuiltinArith && idx < compile.BuiltinArith+5:
			return "$arith(" + compile.ArithName(idx-compile.BuiltinArith) + ")/3"
		case idx == compile.BuiltinPrint:
			return "print/1"
		case idx == compile.BuiltinPrintln:
			return "println/1"
		case idx == compile.BuiltinUnify:
			return "$unify/2"
		case idx == compile.BuiltinNewVec:
			return "new_vector/2"
		case idx == compile.BuiltinVecElem:
			return "vector_element/3"
		case idx == compile.BuiltinSetVec:
			return "set_vector_element/4"
		}
		return fmt.Sprintf("$builtin(%d)", idx)
	}
	return e.sh.Image.Procs[idx].Key()
}

func compareInts(kind int, l, r int64) bool {
	switch kind {
	case compile.CmpLt:
		return l < r
	case compile.CmpGt:
		return l > r
	case compile.CmpLe:
		return l <= r
	case compile.CmpGe:
		return l >= r
	case compile.CmpEq:
		return l == r
	case compile.CmpNe:
		return l != r
	}
	panic(fmt.Sprintf("emulator: bad comparison kind %d", kind))
}

func evalArith(kind int, l, r int64) (int64, error) {
	switch kind {
	case compile.ArithAdd:
		return l + r, nil
	case compile.ArithSub:
		return l - r, nil
	case compile.ArithMul:
		return l * r, nil
	case compile.ArithDiv:
		if r == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return l / r, nil
	case compile.ArithMod:
		if r == 0 {
			return 0, fmt.Errorf("mod by zero")
		}
		return l % r, nil
	}
	panic(fmt.Sprintf("emulator: bad arith kind %d", kind))
}
