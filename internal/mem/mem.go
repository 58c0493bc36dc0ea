// Package mem models the shared global memory of the simulated PIM
// cluster: a flat word-addressed space partitioned into the five KL1
// storage areas (instruction, heap, goal, suspension, communication), the
// shared-memory module backing it, and the allocators the KL1 runtime
// uses inside those areas (bump allocation for the heap, free lists for
// the record areas).
package mem

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// Area identifies one of the KL1 storage areas. The paper's evaluation
// (Tables 2 and 4) attributes memory references and bus cycles to these
// areas, and the optimized cache commands are enabled per area.
type Area uint8

const (
	// AreaNone is returned for addresses outside every area (including
	// the reserved null page).
	AreaNone Area = iota
	// AreaInst holds compiled abstract-machine code.
	AreaInst
	// AreaHeap holds terms: variables, lists, structures.
	AreaHeap
	// AreaGoal holds goal records (free-list managed).
	AreaGoal
	// AreaSusp holds suspension records (free-list managed).
	AreaSusp
	// AreaComm holds inter-PE message buffers (free-list managed).
	AreaComm

	// NumAreas counts the identifiers above (including AreaNone) and
	// sizes per-area statistics arrays.
	NumAreas
)

var areaNames = [NumAreas]string{"none", "inst", "heap", "goal", "susp", "comm"}

// String returns the area's short name as used in the paper's tables.
func (a Area) String() string {
	if int(a) < len(areaNames) {
		return areaNames[a]
	}
	return fmt.Sprintf("area(%d)", uint8(a))
}

// Layout describes the sizes, in words, of the five areas. The areas are
// placed contiguously after a one-word reserved null page so that address
// zero is never a valid cell.
type Layout struct {
	InstWords int
	HeapWords int
	GoalWords int
	SuspWords int
	CommWords int
}

// DefaultLayout returns a layout comfortably sized for the bundled
// benchmarks: the heap dominates, as in the paper (over 80% of shared
// memory for large programs).
func DefaultLayout() Layout {
	return Layout{
		InstWords: 64 << 10,
		HeapWords: 8 << 20,
		GoalWords: 1 << 20,
		SuspWords: 256 << 10,
		CommWords: 64 << 10,
	}
}

const reservedWords = 16 // null page: addresses 0..15 are never valid cells

// Bounds give the half-open address ranges of each area.
type Bounds struct {
	InstBase, HeapBase, GoalBase, SuspBase, CommBase, End word.Addr
}

// Bounds computes the area base addresses for the layout.
func (l Layout) Bounds() Bounds {
	var b Bounds
	b.InstBase = reservedWords
	b.HeapBase = b.InstBase + word.Addr(l.InstWords)
	b.GoalBase = b.HeapBase + word.Addr(l.HeapWords)
	b.SuspBase = b.GoalBase + word.Addr(l.GoalWords)
	b.CommBase = b.SuspBase + word.Addr(l.SuspWords)
	b.End = b.CommBase + word.Addr(l.CommWords)
	return b
}

// TotalWords reports the size of the whole simulated address space.
func (l Layout) TotalWords() int { return int(l.Bounds().End) }

// AreaOf classifies an address.
func (b Bounds) AreaOf(a word.Addr) Area {
	switch {
	case a < b.InstBase:
		return AreaNone
	case a < b.HeapBase:
		return AreaInst
	case a < b.GoalBase:
		return AreaHeap
	case a < b.SuspBase:
		return AreaGoal
	case a < b.CommBase:
		return AreaSusp
	case a < b.End:
		return AreaComm
	default:
		return AreaNone
	}
}

// Memory is the shared global memory module. It stores data only; timing
// (the eight-cycle access latency, bus occupancy) is modelled by the bus
// package. Memory is not safe for concurrent use: the machine serializes
// all accesses, mirroring the single shared bus.
type Memory struct {
	words  []word.Word
	size   int
	bounds Bounds
}

// New allocates a memory for the layout.
func New(l Layout) *Memory {
	return &Memory{
		words:  make([]word.Word, l.TotalWords()),
		size:   l.TotalWords(),
		bounds: l.Bounds(),
	}
}

// NewStatsOnly builds a memory with no word store for stats-only trace
// replay: the layout, bounds and Size are those of a real memory (the bus
// sizes its presence table from Size), but no data is ever stored. Every
// data access panics — coherence decisions never depend on values, so in
// a correctly gated stats-only machine none of these methods is reached;
// a panic here means a data-plane gate is missing, not that the caller
// should tolerate zeros.
func NewStatsOnly(l Layout) *Memory {
	return &Memory{size: l.TotalWords(), bounds: l.Bounds()}
}

// StatsOnly reports whether this memory carries no word store.
func (m *Memory) StatsOnly() bool { return m.words == nil && m.size > 0 }

// Bounds returns the area map.
func (m *Memory) Bounds() Bounds { return m.bounds }

// AreaOf classifies an address against this memory's layout.
func (m *Memory) AreaOf(a word.Addr) Area { return m.bounds.AreaOf(a) }

// Size reports the total number of words.
func (m *Memory) Size() int { return m.size }

func (m *Memory) checkData() {
	if m.words == nil && m.size > 0 {
		panic("mem: data access on a stats-only memory (missing data-plane gate)")
	}
}

// Read returns the word at a. It panics on out-of-range addresses: the
// simulated machine's address arithmetic is supposed to be correct, so a
// wild address is a simulator bug.
func (m *Memory) Read(a word.Addr) word.Word {
	m.checkData()
	return m.words[a]
}

// Write stores w at a.
func (m *Memory) Write(a word.Addr, w word.Word) {
	m.checkData()
	m.words[a] = w
}

// ReadBlock copies the block of n words starting at base into dst.
func (m *Memory) ReadBlock(base word.Addr, dst []word.Word) {
	m.checkData()
	copy(dst, m.words[base:int(base)+len(dst)])
}

// WriteBlock stores src at base.
func (m *Memory) WriteBlock(base word.Addr, src []word.Word) {
	m.checkData()
	copy(m.words[base:int(base)+len(src)], src)
}

// Snapshot returns a copy of the full word store, for machine-level
// checkpoints.
func (m *Memory) Snapshot() []word.Word {
	return append([]word.Word(nil), m.words...)
}

// Restore overwrites the word store from a snapshot of a memory with the
// same layout. A stats-only memory has no word store and drops the image.
func (m *Memory) Restore(words []word.Word) error {
	if m.StatsOnly() {
		return nil
	}
	if len(words) != len(m.words) {
		return fmt.Errorf("mem: snapshot has %d words, memory has %d", len(words), len(m.words))
	}
	copy(m.words, words)
	return nil
}

// Accessor is the simulated-memory access interface used by the KL1
// runtime. It is implemented by each PE's cache port; every call may
// generate cache and bus activity. The optimized operations degrade to
// plain reads/writes exactly as the paper specifies when their
// preconditions do not hold or when they are disabled for an area.
type Accessor interface {
	// Read performs a normal read (R).
	Read(a word.Addr) word.Word
	// Write performs a normal write (W) with fetch-on-write allocation.
	Write(a word.Addr, w word.Word)
	// LockRead (LR) acquires the word lock and returns the word. ok is
	// false when the word is locked by another PE: the caller must undo
	// any locks it already holds and retry the whole operation after the
	// machine delivers the unlock broadcast (busy wait costs no bus
	// cycles).
	LockRead(a word.Addr) (w word.Word, ok bool)
	// UnlockWrite (UW) writes the word and releases the lock.
	UnlockWrite(a word.Addr, w word.Word)
	// Unlock (U) releases the lock without writing.
	Unlock(a word.Addr)
	// DirectWrite (DW) writes without fetch-on-write. Callers must only
	// use it on fresh memory no remote cache can hold.
	DirectWrite(a word.Addr, w word.Word)
	// ExclusiveRead (ER) reads and purges/invalidates block copies that
	// are dead after the read (write-once/read-once data).
	ExclusiveRead(a word.Addr) word.Word
	// ReadPurge (RP) reads and forcibly purges the block.
	ReadPurge(a word.Addr) word.Word
	// ReadInvalidate (RI) reads, taking the block exclusively so an
	// immediately following write needs no invalidate bus command.
	ReadInvalidate(a word.Addr) word.Word
}

// DirectAccessor adapts a Memory to the Accessor interface with no cache
// or timing model. It is used for loading programs, by tests, and as the
// "infinitely fast memory" baseline. Lock operations always succeed; the
// adapter tracks no lock state.
type DirectAccessor struct{ M *Memory }

// Read implements Accessor.
func (d DirectAccessor) Read(a word.Addr) word.Word { return d.M.Read(a) }

// Write implements Accessor.
func (d DirectAccessor) Write(a word.Addr, w word.Word) { d.M.Write(a, w) }

// LockRead implements Accessor; it always succeeds.
func (d DirectAccessor) LockRead(a word.Addr) (word.Word, bool) { return d.M.Read(a), true }

// UnlockWrite implements Accessor.
func (d DirectAccessor) UnlockWrite(a word.Addr, w word.Word) { d.M.Write(a, w) }

// Unlock implements Accessor.
func (d DirectAccessor) Unlock(word.Addr) {}

// DirectWrite implements Accessor.
func (d DirectAccessor) DirectWrite(a word.Addr, w word.Word) { d.M.Write(a, w) }

// ExclusiveRead implements Accessor.
func (d DirectAccessor) ExclusiveRead(a word.Addr) word.Word { return d.M.Read(a) }

// ReadPurge implements Accessor.
func (d DirectAccessor) ReadPurge(a word.Addr) word.Word { return d.M.Read(a) }

// ReadInvalidate implements Accessor.
func (d DirectAccessor) ReadInvalidate(a word.Addr) word.Word { return d.M.Read(a) }
