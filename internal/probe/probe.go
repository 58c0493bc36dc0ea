// Package probe is the simulator's telemetry layer: a pluggable,
// zero-overhead-when-nil event sink that the bus, the caches, the
// machine and the KL1 emulator feed with cycle-stamped structured
// events — bus transactions, cache state transitions, lock activity,
// PE status changes and scheduler actions.
//
// The probe exists to expose the *temporal* structure the end-of-run
// aggregates (bus.Stats, cache.Stats, emulator.Stats) collapse: lock
// contention bursts, invalidation storms after goal stealing, and
// phase-dependent bus saturation. Three consumers build on it: an
// interval-metrics collector (Intervals), a Perfetto/Chrome
// trace-event exporter (Perfetto), and per-block hot-spot counters
// (HotSpots). Any Sink can be attached; Multi fans one stream out to
// several consumers.
//
// # Clock
//
// Events are stamped with the probe clock, a simulated-cycle counter
// owned by the bus: it advances by one cycle per memory reference a
// PE issues (the cache access itself) and by the transaction's cycle
// cost for every bus transaction. Unlike raw bus-cycle counts this
// clock keeps moving through hit-only phases, so "bus cycles in this
// interval / interval width" is a meaningful utilization. The clock
// is driven entirely by the reference stream and the coherence
// activity it causes, so identical runs — and a live run versus a
// replay of its recorded trace — produce identical timestamps.
//
// # Determinism
//
// The event stream is a pure function of the reference stream and the
// cache configuration. Two identical runs emit byte-identical
// streams; a live run and a replay of its trace emit identical
// memory-system events (kinds for which Kind.Scheduler reports
// false). Scheduler-level events (PE status, goal steal / suspend /
// resume) exist only in live runs, because a trace replay drives the
// cache ports directly without running the KL1 runtime.
package probe

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// Kind enumerates the event kinds.
type Kind uint8

const (
	// KindRef: a PE issued a memory reference. PE, A=op, Addr. Emitted
	// once per reference, immediately after the clock tick that stamps
	// it.
	KindRef Kind = iota
	// KindMiss: the reference missed in the PE's cache. PE, A=op, Addr.
	KindMiss
	// KindBusBegin: a bus transaction started. PE=requester, A=command
	// (CmdNone for write-backs and word writes, which have no Section
	// 3.3 command), Addr, Arg=remote-holder bitmask at transaction
	// start, N=1 when an LK broadcast rides along.
	KindBusBegin
	// KindBusEnd: the transaction completed. Fields as KindBusBegin
	// plus B=access pattern and N=cycles charged; the transaction
	// occupied the bus during [Cycle-N, Cycle).
	KindBusEnd
	// KindCacheState: a block changed state in a PE's cache. PE,
	// Addr=block base, A=from state, B=to state, Arg=transition reason
	// (the Reason constants).
	KindCacheState
	// KindLockAcquire: the PE's lock directory acquired a word lock.
	// PE, Addr.
	KindLockAcquire
	// KindLockRelease: a word lock was released. PE, Addr, Arg=1 when
	// the release broadcast UL to wake busy-waiters.
	KindLockRelease
	// KindLockSpin: an LR drew the LH response; the PE busy-waits until
	// the matching UL. PE, Addr.
	KindLockSpin
	// KindLockConflict: a bus transaction was answered LH by a remote
	// lock directory (the transaction aborted and will be retried).
	// PE=requester, Addr.
	KindLockConflict
	// KindPEStatus: a PE's scheduler status changed. PE, A=status (the
	// Status constants). Live runs only.
	KindPEStatus
	// KindGoalSteal: the PE received a goal donated by another PE. PE,
	// Arg=victim PE. Live runs only.
	KindGoalSteal
	// KindGoalSuspend: the PE suspended its current goal on unbound
	// variables. PE. Live runs only.
	KindGoalSuspend
	// KindGoalResume: the PE resumed a suspended goal. PE, Addr=goal
	// record. Live runs only.
	KindGoalResume

	// NumKinds sizes per-kind arrays.
	NumKinds
)

var kindNames = [NumKinds]string{
	"ref", "miss", "bus-begin", "bus-end", "cache-state",
	"lock-acquire", "lock-release", "lock-spin", "lock-conflict",
	"pe-status", "goal-steal", "goal-suspend", "goal-resume",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Scheduler reports whether the kind is a scheduler-level event that
// exists only in live runs (a trace replay cannot reproduce it).
func (k Kind) Scheduler() bool {
	switch k {
	case KindPEStatus, KindGoalSteal, KindGoalSuspend, KindGoalResume:
		return true
	}
	return false
}

// CmdNone marks a bus transaction with no Section 3.3 command (dirty
// write-backs and write-through word writes).
const CmdNone uint8 = 0xFF

// Reason values for KindCacheState events (the Arg field).
const (
	// ReasonFetch: the block was installed by a bus fetch (F/FI).
	ReasonFetch uint64 = iota
	// ReasonDirectWrite: the block was allocated by DW without a fetch.
	ReasonDirectWrite
	// ReasonEvict: the block was displaced by a replacement victim.
	ReasonEvict
	// ReasonSnoopInval: a remote FI/I/word-write invalidated the copy.
	ReasonSnoopInval
	// ReasonSnoopShare: a remote F downgraded the copy to a shared
	// state (EM to SM, EC to S; under Illinois a dirty copy also turns
	// clean).
	ReasonSnoopShare
	// ReasonPurge: ER/RP discarded the local copy (dead data).
	ReasonPurge
	// ReasonFlush: Flush emptied the cache (GC or end-of-run; costs no
	// simulated cycles).
	ReasonFlush
	// ReasonWrite: a local write upgraded the state (S/SM/EC toward
	// EM, or SM when a remote lock denies exclusivity).
	ReasonWrite
	// ReasonLock: an LR upgraded the state while taking a lock.
	ReasonLock
	// ReasonAdaptiveDrop: the adaptive update protocol self-invalidated
	// the copy after receiving its threshold of consecutive UP
	// broadcasts with no local access.
	ReasonAdaptiveDrop

	numReasons
)

var reasonNames = [numReasons]string{
	"fetch", "direct-write", "evict", "snoop-inval", "snoop-share",
	"purge", "flush", "write", "lock", "adaptive-drop",
}

// ReasonName names a KindCacheState reason.
func ReasonName(r uint64) string {
	if r < uint64(numReasons) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", r)
}

// Status values for KindPEStatus events (the A field). StatusRunning
// through StatusFailed mirror machine.Status numerically (asserted by
// the cross-package name tests); StatusSpinning is probe-level: the
// machine skips the PE because it busy-waits on a remote lock.
const (
	StatusRunning uint8 = iota
	StatusIdle
	StatusHalted
	StatusFailed
	StatusSpinning

	numStatuses
)

var statusNames = [numStatuses]string{"running", "idle", "halted", "failed", "spinning"}

// StatusName names a KindPEStatus status.
func StatusName(s uint8) string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", s)
}

// Name tables for the enum values carried in events as raw bytes: bus
// commands and access patterns, cache states and memory operations.
// They live here, below bus and cache, so every event consumer can
// render them; the String methods of bus.Command, bus.Pattern,
// cache.State and cache.Op return these names, and names_test.go pins
// each table to its enum's length.
var (
	cmdNames     = [...]string{"F", "FI", "I", "H", "LK", "UL", "LH", "UP"}
	patternNames = [...]string{
		"swapin-mem", "swapin-mem+swapout", "c2c", "c2c+swapout",
		"swapout-only", "invalidate", "unlock", "word-write", "update",
	}
	stateNames = [...]string{"INV", "S", "SM", "EC", "EM", "O"}
	opNames    = [...]string{"R", "W", "LR", "UW", "U", "DW", "ER", "RP", "RI"}
)

// CmdName names a bus command byte (CmdNone for command-less
// transactions).
func CmdName(c uint8) string {
	if c == CmdNone {
		return "-"
	}
	if int(c) < len(cmdNames) {
		return cmdNames[c]
	}
	return fmt.Sprintf("cmd(%d)", c)
}

// PatternName names a bus access-pattern byte.
func PatternName(p uint8) string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", p)
}

// StateName names a cache-state byte.
func StateName(s uint8) string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", s)
}

// OpName names a memory-operation byte.
func OpName(o uint8) string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", o)
}

// OpU is the unlock operation's byte value (mirrors cache.OpU); the
// interval collector excludes it from lookup counts because U touches
// only the lock directory, never the block directory.
const OpU uint8 = 4

// Event is one cycle-stamped simulation event. The struct is flat and
// comparable so that event streams can be compared directly by the
// determinism oracles; kind-specific payloads ride in A, B, N and Arg
// as documented per Kind.
type Event struct {
	// Cycle is the probe-clock timestamp (see the package comment).
	Cycle uint64
	// Arg is a kind-specific payload: holder bitmask (bus events),
	// transition reason (cache-state), victim PE (goal-steal), waiter
	// flag (lock-release).
	Arg uint64
	// Addr is the word or block address the event concerns.
	Addr word.Addr
	// N is a kind-specific count: transaction cycles (bus-end), LK flag
	// (bus-begin).
	N uint32
	// Kind discriminates the payload.
	Kind Kind
	// A and B are kind-specific operand bytes: command, pattern,
	// operation, from/to state, status.
	A, B uint8
	// PE is the processor the event concerns (the requester for bus
	// events), or -1 when no single PE applies.
	PE int16
}

// Sink consumes probe events. Emit is called synchronously from the
// simulation's hot paths, in deterministic order; implementations
// must not retain e past the call unless they copy it (Event is a
// value, so plain assignment copies).
//
// Components hold a Sink in a single nil-checkable field; a nil field
// disables the probe with no allocation and no work beyond one branch
// per emit site.
type Sink interface {
	Emit(e Event)
}

// Buffer collects every event in memory. It is the reference consumer
// the determinism oracles compare, and a convenient base for ad-hoc
// analysis; long runs should prefer the streaming consumers.
type Buffer struct {
	Events []Event
}

// Emit implements Sink.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }

// MemoryEvents returns the subsequence of memory-system events (the
// kinds a trace replay reproduces).
func (b *Buffer) MemoryEvents() []Event {
	var out []Event
	for _, e := range b.Events {
		if !e.Kind.Scheduler() {
			out = append(out, e)
		}
	}
	return out
}

// multi fans events out to several sinks in order.
type multi struct {
	sinks []Sink
}

// Multi returns a Sink that forwards every event to each non-nil sink
// in order. With zero or one effective sinks it returns nil or that
// sink directly, preserving the zero-overhead-when-nil contract.
func Multi(sinks ...Sink) Sink {
	var eff []Sink
	for _, s := range sinks {
		if s != nil {
			eff = append(eff, s)
		}
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	}
	return &multi{sinks: eff}
}

// Emit implements Sink.
func (m *multi) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

// memoryOnly drops scheduler-level events.
type memoryOnly struct {
	sink Sink
}

// MemoryOnly wraps a sink so it receives only memory-system events —
// the subset a trace replay reproduces, and therefore the subset
// under the live-versus-replay byte-identity guarantee.
func MemoryOnly(s Sink) Sink {
	if s == nil {
		return nil
	}
	return &memoryOnly{sink: s}
}

// Emit implements Sink.
func (m *memoryOnly) Emit(e Event) {
	if !e.Kind.Scheduler() {
		m.sink.Emit(e)
	}
}
