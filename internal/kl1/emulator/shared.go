// Package emulator implements the parallel KL1 reduction engine of the
// paper's Section 2.2: per-PE goal lists reduced depth-first, logical
// variables with suspension/resumption, word-granular locking of shared
// bindings, and an on-demand scheduler that balances load by passing goal
// records through the communication area.
//
// Every simulated memory access an Engine makes flows through its PE's
// cache port, so running a program measures exactly the reference stream
// the paper instruments: instruction fetches from the instruction area,
// term accesses in the heap, write-once/read-once goal records consumed
// with ER/RP, suspension records, and two-word request/reply messages in
// the communication area read with RI.
package emulator

import (
	"errors"
	"fmt"
	"strings"

	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Record layouts. Goal records are fixed-size so that they are
// block-aligned under the paper's four-word blocks, which is what lets
// the runtime create them with DW and consume them with ER/RP.
const (
	// GoalRecordWords is the goal record size: link, header, status, and
	// up to MaxGoalArity argument words.
	GoalRecordWords = 16
	goalLinkOff     = 0
	goalHeaderOff   = 1
	goalStatusOff   = 2
	goalArgsOff     = 3

	// SuspRecordWords is the suspension record size: next, goal, two pad
	// words (one cache block).
	SuspRecordWords = 4
	suspNextOff     = 0
	suspGoalOff     = 1

	// SlotWords is a communication slot: a status/lock word and a payload
	// word padded to one block. Messages are "only two words and are
	// usually written once and read once" (Section 2.2).
	SlotWords     = 4
	slotStatusOff = 0
	slotValueOff  = 1
)

// Goal status values (the goalStatusOff word).
const (
	statusQueued   = 0 // linked into a goal list or being reduced
	statusFloating = 1 // suspended, reachable only via suspension records
)

// pollInterval is how many reductions pass between polls of one
// incoming work-request slot.
const pollInterval = 2

// Config tunes the runtime.
type Config struct {
	// MaxInstr aborts a runaway program after this many abstract
	// instructions per PE (0 = unlimited).
	MaxInstr uint64
	// EnableGC halves each PE's heap into semispaces and runs the
	// stop-and-copy collector when allocation fails. Off, allocation
	// failure aborts the program (the bundled benchmarks are sized to
	// fit without collecting).
	EnableGC bool
}

// DefaultConfig returns the standard runtime tuning.
func DefaultConfig() Config { return Config{} }

// Shared is the cluster-wide runtime state. The Go-level fields mirror
// what the paper treats as processor registers and system metadata
// (scheduler status flags, pointers, counters), which are explicitly not
// counted as memory references; everything the paper does count lives in
// the simulated memory areas.
type Shared struct {
	Image  *compile.Image
	Mem    *mem.Memory
	NumPEs int
	Cfg    Config

	bounds mem.Bounds

	// busy[i] reports PE i has queued goals (scheduler status flag).
	busy []bool
	// liveGoals counts goals queued, running, or in transit; zero means
	// global termination.
	liveGoals int64
	// floating counts suspended goals not yet resumed; nonzero at
	// termination means the program deadlocked on unbound variables.
	floating int64

	failed     bool
	failReason string

	gc gcState

	out strings.Builder

	// probe receives scheduler-level telemetry (goal steal / suspend /
	// resume); now supplies the probe clock, the cluster bus's
	// ProbeClock, so scheduler events share the memory system's
	// timeline. Both nil unless NewCluster was given a sink.
	probe probe.Sink
	now   func() uint64
}

// emitSched reports a scheduler event for pe; a no-op when no probe is
// attached.
func (sh *Shared) emitSched(kind probe.Kind, pe int, addr word.Addr, arg uint64) {
	if sh.probe == nil {
		return
	}
	sh.probe.Emit(probe.Event{Kind: kind, Cycle: sh.now(), PE: int16(pe), Addr: addr, Arg: arg})
}

// ErrMachineConfig marks a machine configuration NewCluster refuses:
// one machine.New cannot build, or one the runtime cannot run on.
// Commands report it as a usage error.
var ErrMachineConfig = errors.New("emulator: unsupported machine configuration")

// newShared prepares the cluster state for machine m and loads the code
// image into the instruction area (system boot: written directly, not
// through a cache).
func newShared(im *compile.Image, m *machine.Machine, cfg Config) (*Shared, error) {
	memory, numPEs := m.Memory(), m.Config().PEs
	b := memory.Bounds()
	instCap := int(b.HeapBase - b.InstBase)
	if len(im.Code) > instCap {
		return nil, fmt.Errorf("emulator: code (%d words) exceeds instruction area (%d words)",
			len(im.Code), instCap)
	}
	for i, w := range im.Code {
		memory.Write(b.InstBase+word.Addr(i), w)
	}
	sh := &Shared{
		Image:  im,
		Mem:    memory,
		NumPEs: numPEs,
		Cfg:    cfg,
		bounds: b,
		busy:   make([]bool, numPEs),
	}
	if _, ok := im.ProcIndexOf("main", 0); !ok {
		return nil, fmt.Errorf("emulator: program has no main/0")
	}
	return sh, nil
}

// entryAddr returns the absolute instruction address of a procedure.
func (sh *Shared) entryAddr(procIdx int) word.Addr {
	return sh.bounds.InstBase + word.Addr(sh.Image.Procs[procIdx].Entry)
}

// fail records a program failure.
func (sh *Shared) fail(reason string) {
	if !sh.failed {
		sh.failed = true
		sh.failReason = reason
	}
}

// Failed reports whether the program failed, and why.
func (sh *Shared) Failed() (bool, string) { return sh.failed, sh.failReason }

// Output returns everything printed so far.
func (sh *Shared) Output() string { return sh.out.String() }

// Floating reports suspended goals that were never resumed (nonzero at
// termination indicates the program deadlocked).
func (sh *Shared) Floating() int64 { return sh.floating }

// --- per-PE area partitioning ---

// segment splits [base, limit) into n equal PE segments and returns the
// i-th, block-aligned.
func segment(base, limit word.Addr, n, i int) (word.Addr, word.Addr) {
	size := (int(limit-base) / n) &^ 15 // keep 16-word alignment
	lo := base + word.Addr(i*size)
	return lo, lo + word.Addr(size)
}

// heapSegment returns PE i's heap region.
func (sh *Shared) heapSegment(i int) (word.Addr, word.Addr) {
	return segment(sh.bounds.HeapBase, sh.bounds.GoalBase, sh.NumPEs, i)
}

// goalSegment returns PE i's goal-area region.
func (sh *Shared) goalSegment(i int) (word.Addr, word.Addr) {
	return segment(sh.bounds.GoalBase, sh.bounds.SuspBase, sh.NumPEs, i)
}

// suspSegment returns PE i's suspension-area region.
func (sh *Shared) suspSegment(i int) (word.Addr, word.Addr) {
	return segment(sh.bounds.SuspBase, sh.bounds.CommBase, sh.NumPEs, i)
}

// mailboxBase returns the base of PE i's mailbox in the communication
// area: NumPEs request slots (one per potential sender, so senders never
// contend for a slot) followed by one reply slot.
func (sh *Shared) mailboxBase(i int) word.Addr {
	need := word.Addr((sh.NumPEs + 1) * SlotWords)
	return sh.bounds.CommBase + word.Addr(i)*need
}

// requestSlot returns the slot through which sender asks receiver for
// work.
func (sh *Shared) requestSlot(receiver, sender int) word.Addr {
	return sh.mailboxBase(receiver) + word.Addr(sender*SlotWords)
}

// replySlot returns PE i's reply slot.
func (sh *Shared) replySlot(i int) word.Addr {
	return sh.mailboxBase(i) + word.Addr(sh.NumPEs*SlotWords)
}

// commCapacity verifies the communication area fits the mailboxes.
func (sh *Shared) commCapacity() error {
	need := word.Addr(sh.NumPEs * (sh.NumPEs + 1) * SlotWords)
	if sh.bounds.CommBase+need > sh.bounds.End {
		return fmt.Errorf("emulator: communication area too small: need %d words", need)
	}
	return nil
}
