package emulator

import (
	"fmt"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// dwAccessor forwards to an Accessor but turns plain writes into direct
// writes: record free-list links are written into blocks whose contents
// are dead, so fetching them on write would be pure overhead. The cache
// degrades DW to W wherever it does not apply.
type dwAccessor struct{ mem.Accessor }

func (d dwAccessor) Write(a word.Addr, w word.Word) { d.DirectWrite(a, w) }

// goalLink renders the goal-list head as a record link word.
func (e *Engine) goalLink() word.Word {
	if e.goalHead == word.NilAddr {
		return word.Nil()
	}
	return word.Goal(e.goalHead)
}

// pushGoalAddr links an already-written record to the front of the goal
// list (the record's link word must already be set).
func (e *Engine) pushGoalAddr(rec word.Addr) {
	e.goalHead = rec
	e.goalCount++
	e.sh.busy[e.pe] = true
}

// spawnGoal creates a goal record for proc/arity with args at register
// base and pushes it. Goal records are written with DW: they are fresh,
// write-once data (Section 2.3).
func (e *Engine) spawnGoal(procIdx, arity, base int) bool {
	rec, ok := e.goalFL.Alloc(e.acc)
	if !ok {
		e.sh.fail(fmt.Sprintf("PE %d goal area exhausted", e.pe))
		return false
	}
	e.acc.DirectWrite(rec+goalLinkOff, e.goalLink())
	e.acc.DirectWrite(rec+goalHeaderOff, compile.EncodeGoalHeader(procIdx, arity))
	e.acc.DirectWrite(rec+goalStatusOff, word.Int(statusQueued))
	for i := 0; i < arity; i++ {
		e.acc.DirectWrite(rec+goalArgsOff+word.Addr(i), e.regs[base+i])
	}
	e.pushGoalAddr(rec)
	e.sh.liveGoals++
	e.stats.Spawns++
	return true
}

// recordRead reads words [0, n) of the record at rec using the
// write-once/read-once discipline of Section 3.2: ER for every word, with
// the final word read by RP when it does not fall on a block boundary (in
// which case ER's own last-word purge applies). After a full read no
// cache holds any of the record's touched blocks.
//
// skipStatus omits the status word (offset 2), which the dequeue path
// does not need; the purge behaviour is unaffected because the skipped
// word is never a block's last word here.
func (e *Engine) recordRead(rec word.Addr, n int, skipStatus bool) []word.Word {
	out := make([]word.Word, n)
	blockMask := word.Addr(3) // ER/RP semantics are defined against the
	// four-word block of the paper's base cache; the cache itself
	// re-checks block boundaries, so a different simulated block size
	// only shifts which reads degrade to plain R.
	for i := 0; i < n; i++ {
		a := rec + word.Addr(i)
		if skipStatus && i == goalStatusOff {
			continue
		}
		last := i == n-1
		switch {
		case last && a&blockMask != blockMask:
			out[i] = e.acc.ReadPurge(a)
		default:
			out[i] = e.acc.ExclusiveRead(a)
		}
	}
	return out
}

// dequeueGoal pops the front goal record, loads it into the register
// file, reclaims the record, and begins the reduction. Builtin goals set
// builtinProc instead of entering compiled code.
func (e *Engine) dequeueGoal() {
	rec := e.goalHead
	header := e.acc.ExclusiveRead(rec + goalHeaderOff)
	procIdx, arity := compile.DecodeGoalHeader(header)
	words := e.recordReadTail(rec, goalArgsOff+arity)
	link := words[goalLinkOff]
	if link.Tag() == word.TagGoal {
		e.goalHead = link.Addr()
	} else {
		e.goalHead = word.NilAddr
	}
	e.goalCount--
	e.sh.busy[e.pe] = e.goalCount > 0
	for i := 0; i < arity; i++ {
		e.regs[i] = e.fixVar(rec+goalArgsOff+word.Addr(i), words[goalArgsOff+i])
	}
	e.goalFL.Push(dwAccessor{e.acc}, rec)
	if compile.IsBuiltin(procIdx) {
		e.builtinProc = procIdx
		e.builtinArity = arity
		return
	}
	e.beginReduction(procIdx, arity)
}

// recordReadTail re-reads the record including the link and args after
// the header peek (the header word was already read; reading it again via
// the ER sequence keeps the purge discipline intact at the cost of one
// extra hit).
func (e *Engine) recordReadTail(rec word.Addr, n int) []word.Word {
	return e.recordRead(rec, n, true)
}

// --- communication-area messaging ---

// sendMessage writes a two-word message into a slot: the status word is
// the lock (LR/UW), the payload a single word. Returns false while the
// slot lock is busy (retry).
func (e *Engine) sendMessage(slot word.Addr, payload word.Word) bool {
	status, ok := e.acc.LockRead(slot + slotStatusOff)
	if !ok {
		return false
	}
	if status.Tag() == word.TagInt && status.IntVal() != 0 {
		// Receiver has not consumed the previous message; with one
		// outstanding request per PE and per-sender slots this cannot
		// happen.
		panic(fmt.Sprintf("emulator: PE %d: slot %#x still full", e.pe, slot))
	}
	e.acc.Write(slot+slotValueOff, payload)
	e.acc.UnlockWrite(slot+slotStatusOff, word.Int(1))
	return true
}

// pollSlot checks a slot with RI (the block will be rewritten immediately
// if a message is present, and polling an empty slot hits the
// exclusively-held block for free). ok reports a message was consumed.
func (e *Engine) pollSlot(slot word.Addr) (word.Word, bool) {
	status := e.acc.ReadInvalidate(slot + slotStatusOff)
	if status.Tag() != word.TagInt || status.IntVal() == 0 {
		return 0, false
	}
	payload := e.acc.Read(slot + slotValueOff)
	e.acc.Write(slot+slotStatusOff, word.Int(0))
	return payload, true
}

// pollRequests services at most one pending work request per call,
// rotating over the per-sender request slots. Called at reduction
// boundaries (the paper's on-demand scheduler).
func (e *Engine) pollRequests() {
	e.sincePoll++
	if e.sincePoll < pollInterval {
		return
	}
	e.sincePoll = 0
	e.pollCursor = (e.pollCursor + 1) % e.sh.NumPEs
	if e.pollCursor == e.pe {
		e.pollCursor = (e.pollCursor + 1) % e.sh.NumPEs
	}
	slot := e.sh.requestSlot(e.pe, e.pollCursor)
	payload, ok := e.pollSlot(slot)
	if !ok {
		return
	}
	requester := int(payload.IntVal())
	reply := e.sh.replySlot(requester)
	if rec, ok := e.unlinkDonation(); ok {
		if !e.sendMessage(reply, word.Goal(rec)) {
			// The reply slot lock is held briefly by the requester's
			// poll; spinning via the normal busy-wait path would
			// complicate the engine, so requeue the goal and drop the
			// request — the requester will ask again.
			e.acc.Write(rec+goalLinkOff, e.goalLink())
			e.pushGoalAddr(rec)
			return
		}
		e.stats.GoalsSent++
	} else {
		if !e.sendMessage(reply, word.Int(0)) {
			return // dropped; requester retries
		}
	}
}

// unlinkDonation removes the first user goal near the front of the goal
// list (builtin continuations such as $arith are too fine-grained to be
// worth a transfer, so a short prefix of them is skipped).
func (e *Engine) unlinkDonation() (word.Addr, bool) {
	const maxSkip = 4
	prev := word.NilAddr
	cur := e.goalHead
	for hops := 0; cur != word.NilAddr && hops < maxSkip; hops++ {
		header := e.acc.Read(cur + goalHeaderOff)
		procIdx, _ := compile.DecodeGoalHeader(header)
		link := e.acc.Read(cur + goalLinkOff)
		next := word.NilAddr
		if link.Tag() == word.TagGoal {
			next = link.Addr()
		}
		if !compile.IsBuiltin(procIdx) {
			if prev == word.NilAddr {
				e.goalHead = next
			} else {
				e.acc.Write(prev+goalLinkOff, link)
			}
			e.goalCount--
			e.sh.busy[e.pe] = e.goalCount > 0
			return cur, true
		}
		prev, cur = cur, next
	}
	return 0, false
}

// schedule is the between-reductions step: poll for work requests, then
// run the next local goal, or look for remote work, or detect global
// termination.
func (e *Engine) schedule() machine.Status {
	if !e.started {
		e.started = true
		if e.pe == 0 {
			idx, _ := e.sh.Image.ProcIndexOf("main", 0)
			e.beginReduction(idx, 0)
			return machine.StatusRunning
		}
	}
	e.pollRequests()
	if e.goalHead != word.NilAddr {
		e.dequeueGoal()
		return machine.StatusRunning
	}
	// No local work.
	if e.waitingOn >= 0 {
		payload, ok := e.pollSlot(e.sh.replySlot(e.pe))
		if !ok {
			if e.sh.liveGoals == 0 {
				// The system drained while we were waiting.
				return machine.StatusHalted
			}
			return machine.StatusIdle
		}
		victim := e.waitingOn
		e.waitingOn = -1
		if payload.Tag() == word.TagGoal {
			e.receiveGoal(payload.Addr())
			e.sh.emitSched(probe.KindGoalSteal, e.pe, payload.Addr(), uint64(victim))
			return machine.StatusRunning
		}
		return machine.StatusIdle // NOWORK: try another victim next step
	}
	if e.sh.liveGoals == 0 {
		return machine.StatusHalted
	}
	victim := e.pickVictim()
	if victim < 0 {
		return machine.StatusIdle
	}
	if e.sendMessage(e.sh.requestSlot(victim, e.pe), word.Int(int64(e.pe))) {
		e.waitingOn = victim
	}
	return machine.StatusIdle
}

// receiveGoal consumes a donated goal record (ER/RP cache-to-cache
// transfer), reclaims the record to this PE's free list, and runs it.
func (e *Engine) receiveGoal(rec word.Addr) {
	header := e.acc.ExclusiveRead(rec + goalHeaderOff)
	procIdx, arity := compile.DecodeGoalHeader(header)
	words := e.recordReadTail(rec, goalArgsOff+arity)
	for i := 0; i < arity; i++ {
		e.regs[i] = e.fixVar(rec+goalArgsOff+word.Addr(i), words[goalArgsOff+i])
	}
	e.goalFL.Push(dwAccessor{e.acc}, rec)
	e.stats.GoalsStolen++
	if compile.IsBuiltin(procIdx) {
		e.builtinProc = procIdx
		e.builtinArity = arity
		return
	}
	e.beginReduction(procIdx, arity)
}

// pickVictim chooses a busy PE round-robin; -1 if none.
func (e *Engine) pickVictim() int {
	for i := 1; i < e.sh.NumPEs; i++ {
		v := (e.pe + i) % e.sh.NumPEs
		if e.sh.busy[v] {
			return v
		}
	}
	return -1
}
