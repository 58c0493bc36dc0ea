// Package bus models the common bus of the simulated PIM cluster: the
// single shared interconnect carrying block fetches, invalidations and
// lock traffic between the per-PE caches and the shared memory module.
//
// The model follows Section 4.2 of the paper: a one-word-wide bus (tag
// plus data) that is held for the duration of one memory operation, an
// eight-cycle shared-memory access, and six access patterns whose cycle
// counts — 13/13/10/7/5/2 for the paper's base parameters — are derived
// here from the block size, bus width, and memory latency so that the
// block-size and bus-width experiments (Figure 1, Section 4.4) can vary
// them.
package bus

import (
	"fmt"
	"math/bits"

	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Command enumerates the bus commands of Section 3.3.
type Command uint8

const (
	// CmdF fetches a block from another PE or shared memory.
	CmdF Command = iota
	// CmdFI fetches a block and invalidates all other copies.
	CmdFI
	// CmdI invalidates all other copies.
	CmdI
	// CmdH is the hit response to F and FI.
	CmdH
	// CmdLK announces that an address is being locked (rides with FI/I).
	CmdLK
	// CmdUL announces that an address with waiters has been unlocked.
	CmdUL
	// CmdLH is the lock-hit response; the requester busy-waits.
	CmdLH
	// CmdUP broadcasts one written word to every other holder of its
	// block (the write-update protocols' alternative to I). Memory is
	// NOT updated: the writer owns the eventual write-back.
	CmdUP

	NumCommands
)

// String returns the paper's mnemonic for the command (probe's table,
// so events and statistics render alike).
func (c Command) String() string { return probe.CmdName(uint8(c)) }

// Pattern enumerates the bus access patterns of Section 4.2. Each bus
// transaction is accounted under exactly one pattern.
type Pattern uint8

const (
	// PatSwapInMem is a block fetch satisfied by shared memory with no
	// dirty victim.
	PatSwapInMem Pattern = iota
	// PatSwapInMemSwapOut is a memory fetch that also evicts a dirty
	// victim; the swap-out write is hidden behind the fetch, so it costs
	// the same as PatSwapInMem (the paper's "hidden by a subsequent
	// memory operation").
	PatSwapInMemSwapOut
	// PatC2C is a cache-to-cache transfer with no dirty victim.
	PatC2C
	// PatC2CSwapOut is a cache-to-cache transfer evicting a dirty victim.
	PatC2CSwapOut
	// PatSwapOutOnly is a lone dirty-victim write-back; it occurs only
	// under the DW command, which allocates without fetching.
	PatSwapOutOnly
	// PatInval is an invalidation of other PEs' copies.
	PatInval
	// PatUnlock is a UL broadcast waking busy-waiting PEs.
	PatUnlock
	// PatWordWrite is a single-word write to shared memory, used only by
	// the write-through baseline protocol (address cycle + one data
	// word; the memory module absorbs it).
	PatWordWrite
	// PatUpdate is a UP broadcast carrying one written word to the other
	// holders (address cycle + one data word; memory does not absorb it,
	// so unlike PatWordWrite it never occupies the memory module).
	PatUpdate

	NumPatterns
)

// String names the pattern (probe's table).
func (p Pattern) String() string { return probe.PatternName(uint8(p)) }

// Timing holds the bus and memory timing parameters.
type Timing struct {
	// MemCycles is the shared-memory access latency (paper: 8).
	MemCycles int
	// WidthWords is the bus width in words (paper: 1).
	WidthWords int
}

// DefaultTiming returns the paper's base parameters.
func DefaultTiming() Timing { return Timing{MemCycles: 8, WidthWords: 1} }

// transferCycles is the time to move a block across the bus.
func (t Timing) transferCycles(blockWords int) int {
	return (blockWords + t.WidthWords - 1) / t.WidthWords
}

// Cycles returns the cost of one transaction of the given pattern for the
// given block size. For the paper's base parameters (four-word blocks,
// one-word bus, eight-cycle memory) this yields 13, 13, 7, 10, 5, 2, 2.
func (t Timing) Cycles(p Pattern, blockWords int) uint64 {
	tr := t.transferCycles(blockWords)
	switch p {
	case PatSwapInMem, PatSwapInMemSwapOut:
		// Address cycle, memory latency, block transfer. A dirty victim's
		// write-back overlaps the next operation and adds nothing.
		return uint64(1 + t.MemCycles + tr)
	case PatC2C:
		// Address cycle, snoop/H-response window, block transfer.
		return uint64(3 + tr)
	case PatC2CSwapOut:
		// The victim write-back partially overlaps the transfer; one word
		// of it is hidden behind the address/snoop cycles.
		return uint64(3 + tr + tr - 1)
	case PatSwapOutOnly:
		// Address cycle plus block transfer to memory.
		return uint64(1 + tr)
	case PatInval, PatUnlock:
		// Command and address broadcast.
		return 2
	case PatWordWrite, PatUpdate:
		// Address cycle plus one data word.
		return 2
	default:
		panic(fmt.Sprintf("bus: unknown pattern %d", p))
	}
}

// Stats accumulates bus activity. CyclesByArea attributes each
// transaction's cycles to the storage area of the address that caused it,
// which is how the paper's Table 2 "Bus Cyc." rows are computed.
type Stats struct {
	TotalCycles     uint64
	CyclesByArea    [mem.NumAreas]uint64
	CyclesByPattern [NumPatterns]uint64
	CountByPattern  [NumPatterns]uint64
	Commands        [NumCommands]uint64
	// MemBusyCycles counts shared-memory-module occupancy. The PIM
	// protocol's SM state exists precisely to keep this low relative to
	// Illinois-style copy-back-on-transfer (Section 3.1), so it is
	// tracked separately from bus occupancy.
	MemBusyCycles uint64
}

// Add merges other into s.
func (s *Stats) Add(other *Stats) {
	s.TotalCycles += other.TotalCycles
	for i := range s.CyclesByArea {
		s.CyclesByArea[i] += other.CyclesByArea[i]
	}
	for i := range s.CyclesByPattern {
		s.CyclesByPattern[i] += other.CyclesByPattern[i]
		s.CountByPattern[i] += other.CountByPattern[i]
	}
	for i := range s.Commands {
		s.Commands[i] += other.Commands[i]
	}
	s.MemBusyCycles += other.MemBusyCycles
}

// Snooper is the cache-side interface the bus uses to maintain coherence.
// Each PE's cache implements it; the bus never calls the requester's own
// snooper.
type Snooper interface {
	// SnoopFetch is invoked for F/FI on the block containing addr. If the
	// cache holds the block it must return its data and report whether
	// it supplies that data (under MOESI only a dirty owner supplies;
	// clean holders assert sharing and defer to memory) and whether its
	// copy was modified; when inval is true (FI) it must invalidate its
	// copy, and when false (F) it must downgrade per its protocol,
	// keeping write-back ownership if its copy was dirty (EM becomes
	// SM/O: the PIM family never copies back to memory on a transfer).
	// retained reports whether the snooper still holds a valid copy
	// afterwards, which tells the requester to install the block shared.
	SnoopFetch(addr word.Addr, inval bool) (data []word.Word, held, supplies, dirty, retained bool)
	// SnoopUpdate is invoked for UP: a remote writer broadcast one
	// written word of the block containing addr. A holder stores the
	// word into its copy and reports held; retained is false when the
	// holder discarded its copy instead (the adaptive protocol's
	// competitive self-invalidation), which lets a writer that finds no
	// retaining holders settle in an exclusive state.
	SnoopUpdate(addr word.Addr, w word.Word) (held, retained bool)
	// SnoopInvalidate is invoked for I; any copy is discarded. It
	// reports whether the discarded copy was modified, which rides the
	// snoop response so a requester upgrading a clean copy knows it
	// must assume write-back ownership (the dirty data now exists only
	// in its own copy).
	SnoopInvalidate(addr word.Addr) (wasDirty bool)
	// Holds reports, without side effects, whether the cache currently
	// holds a valid copy of the block containing addr. The cache
	// controller uses it to choose between the ER/RP sub-behaviours,
	// which the paper specifies in terms of whether "the block resides on
	// another PE".
	Holds(addr word.Addr) bool
}

// LockUnit is the lock-directory-side snoop interface.
type LockUnit interface {
	// CheckLocked reports whether this PE holds a lock on exactly addr.
	// When it does, the unit records that a waiter exists (LCK to LWAIT)
	// so the eventual unlock is broadcast.
	CheckLocked(addr word.Addr) bool
	// LocksInBlock reports whether this PE holds a lock on any word of
	// the block [base, base+words). Used to deny exclusive grants of
	// blocks containing locked words, which keeps later lock releases
	// visible on the bus.
	LocksInBlock(base word.Addr, words int) bool
	// ObserveUnlock delivers a UL broadcast so busy-waiting operations on
	// this PE can retry.
	ObserveUnlock(addr word.Addr)
}

// FetchResult describes the outcome of a Fetch transaction.
type FetchResult struct {
	// LockHit is true when a remote lock directory responded LH. For an
	// LR (withLock) the transaction was aborted with no state changes,
	// the rest of the result is zero, and the requester must busy-wait
	// for the matching UL. For any other fetch the bus has accounted the
	// aborted attempt and run the retry that follows the UL, which the
	// rest of the result describes; the requester only counts its busy
	// wait.
	LockHit bool
	// Data is the fetched block (nil after an LR's LH). It aliases a
	// buffer owned by the bus and is valid only until the start of the
	// next bus transaction: callers must copy out what they keep (which
	// models the hardware — the data exists on the bus wires only for
	// the transfer cycles). It DOES stay valid across the same
	// transaction's hidden victim write-back (SwapOutHidden), which
	// models the fetched block sitting latched on the bus while the
	// victim drains behind it. Config.PoisonFetchData enforces this
	// contract by scribbling the buffer at the start of every
	// transaction.
	Data []word.Word
	// FromCache reports a cache-to-cache transfer.
	FromCache bool
	// SupplierDirty reports that the supplying cache's copy was modified;
	// under the PIM protocol the data is NOT written back to memory, so a
	// requester that receives dirty data exclusively becomes its owner.
	SupplierDirty bool
	// Shared reports that some other cache retains a copy (or that a lock
	// in the block forces a shared grant); the requester must install the
	// block in a shared state.
	Shared bool
}

// MaxPEs bounds the number of attachable PEs; the presence filter keys
// one bit per PE in a 64-bit holder mask.
const MaxPEs = 64

// Bus is the common bus. It serializes all transactions (the simulated
// machine is stepped deterministically, so no Go-level locking is needed)
// and owns cycle accounting.
//
// The bus also maintains two presence filters — a block-residency table
// (one holder PE bitmask per memory block, indexed by addr>>blockShift)
// kept current by the caches through BlockInstalled/BlockDropped, and
// per-PE held-lock counts kept current through LockAcquired/LockReleased.
// They make every snoop and lock poll O(actual holders) instead of
// O(PEs), which is a simulator-host acceleration only: filtered and
// unfiltered runs produce identical simulated statistics (the modelled
// hardware broadcasts either way, and cycle accounting never depended on
// the number of polled units). The table is a flat slice sized from the
// memory footprint — at 8 bytes per block it costs 1/4 word per memory
// word at 4-word blocks, and unlike the map it predates it is branch-free
// and never allocates on the install path.
type Bus struct {
	timing     Timing
	blockWords int
	memory     *mem.Memory
	// bounds is the memory's area map, copied in so account's
	// per-transaction area attribution is a static, inlinable call
	// instead of an indirect one through a func value.
	bounds    mem.Bounds
	snoopers  []Snooper
	lockUnits []LockUnit
	stats     Stats

	// Presence filters and the reusable fetch buffer (see type comment).
	noFilters bool
	poison    bool
	statsOnly bool
	// presence is the block-residency filter, paged: page p covers
	// blocks [p<<presencePageShift, (p+1)<<presencePageShift) and is
	// allocated on the first install within it. A nil page means no
	// holders anywhere in its range. Paging keeps construction from
	// zeroing a table proportional to the whole address space (the
	// dominant allocation of a short replay); every access is on the
	// miss path, so the extra indirection never taxes cache hits.
	presence   [][]uint64
	blockShift uint
	lockCounts []uint32
	totalLocks int
	allMask    uint64
	blockBuf   []word.Word

	// cycleTab and memBusyTab are Timing.Cycles and the memory-module
	// occupancy precomputed per pattern at construction: account runs on
	// every bus transaction, and two table loads beat the switch and
	// transfer-width division.
	cycleTab   [NumPatterns]uint64
	memBusyTab [NumPatterns]uint64

	// probe, when non-nil, receives cycle-stamped telemetry events;
	// ticks is the probe clock's per-reference component (see
	// ProbeClock). Every emit site is guarded by a nil check so the
	// disabled path costs one branch and zero allocations.
	probe probe.Sink
	ticks uint64
}

// Config parameterizes a bus.
type Config struct {
	Timing     Timing
	BlockWords int
	// DisableFilters turns off the snoop and lock presence filters so
	// every transaction polls every attached unit, as real broadcast
	// hardware does. Simulated results are identical either way; the
	// unfiltered path exists as the equivalence oracle and benchmark
	// baseline.
	DisableFilters bool
	// PoisonFetchData scribbles the reusable fetch buffer with a
	// recognizable poison pattern at the start of every bus transaction.
	// Any caller that (illegally) retains FetchResult.Data across a
	// transaction then reads poison instead of silently stale data. A
	// debug/verification mode: it changes no statistics, only the bytes
	// a contract-violating reader would observe. The coherence checker
	// and the poison-equivalence tests enable it.
	PoisonFetchData bool
	// StatsOnly elides all data movement: fetches return nil Data,
	// write-backs and word writes touch no memory, and the fetch buffer
	// is never copied into. Every cycle, pattern, command and
	// memory-busy counter is accounted exactly as in the data-carrying
	// path (supply-source selection uses an explicit from-cache flag,
	// not Data presence). Pair with cache.Config.StatsOnly and a
	// mem.NewStatsOnly memory; machine.New wires all three together.
	StatsOnly bool
}

// New creates a bus over the given shared memory.
func New(cfg Config, memory *mem.Memory) *Bus {
	if cfg.BlockWords < 1 || cfg.BlockWords&(cfg.BlockWords-1) != 0 {
		// blockBase masks with blockWords-1; a non-power-of-two size
		// would silently mis-index instead of failing here.
		panic(fmt.Sprintf("bus: block size %d not a positive power of two", cfg.BlockWords))
	}
	if cfg.Timing.WidthWords < 1 || cfg.Timing.MemCycles < 1 {
		panic("bus: invalid timing")
	}
	shift := uint(bits.TrailingZeros(uint(cfg.BlockWords)))
	blocks := (memory.Size() + cfg.BlockWords - 1) / cfg.BlockWords
	var cycleTab, memBusyTab [NumPatterns]uint64
	for p := Pattern(0); p < NumPatterns; p++ {
		cycleTab[p] = cfg.Timing.Cycles(p, cfg.BlockWords)
		switch p {
		case PatSwapInMem, PatSwapInMemSwapOut, PatSwapOutOnly, PatWordWrite:
			memBusyTab[p] = uint64(cfg.Timing.MemCycles)
		}
	}
	return &Bus{
		timing:     cfg.Timing,
		blockWords: cfg.BlockWords,
		memory:     memory,
		bounds:     memory.Bounds(),
		noFilters:  cfg.DisableFilters,
		poison:     cfg.PoisonFetchData,
		statsOnly:  cfg.StatsOnly,
		presence:   make([][]uint64, (blocks+presencePageLen-1)/presencePageLen),
		blockShift: shift,
		blockBuf:   make([]word.Word, cfg.BlockWords),
		cycleTab:   cycleTab,
		memBusyTab: memBusyTab,
	}
}

// StatsOnly reports whether the bus elides data movement.
func (b *Bus) StatsOnly() bool { return b.statsOnly }

// PoisonWord is the pattern PoisonFetchData scribbles into the fetch
// buffer (plus the word index in the low bits), chosen to be loud in
// memory dumps and never produced by the KL1 tagged-word encoding.
const PoisonWord word.Word = 0xBADBADBADBAD0000

// beginTransaction marks the start of a bus transaction: whatever the
// previous transaction left on the bus wires (the reusable fetch buffer
// aliased by FetchResult.Data) is dead from here on.
func (b *Bus) beginTransaction() {
	if b.poison {
		for i := range b.blockBuf {
			b.blockBuf[i] = PoisonWord | word.Word(i)
		}
	}
}

// Attach registers PE p's cache snooper and lock unit. PEs must be
// attached densely from zero.
func (b *Bus) Attach(p int, s Snooper, l LockUnit) {
	if p != len(b.snoopers) {
		panic(fmt.Sprintf("bus: PE %d attached out of order", p))
	}
	if p >= MaxPEs {
		panic(fmt.Sprintf("bus: PE %d exceeds the %d-PE presence-filter limit", p, MaxPEs))
	}
	b.snoopers = append(b.snoopers, s)
	b.lockUnits = append(b.lockUnits, l)
	b.lockCounts = append(b.lockCounts, 0)
	b.allMask |= 1 << uint(p)
}

// --- presence-filter notification API (called by the caches) ---

// presencePageLen is the presence-filter page size in blocks.
const (
	presencePageShift = 12
	presencePageLen   = 1 << presencePageShift
	presencePageMask  = presencePageLen - 1
)

// presenceAt reads the holder mask for block index idx (addr>>blockShift).
func (b *Bus) presenceAt(idx word.Addr) uint64 {
	pg := b.presence[idx>>presencePageShift]
	if pg == nil {
		return 0
	}
	return pg[idx&presencePageMask]
}

// BlockInstalled records that pe's cache now holds a valid copy of the
// block based at base. Caches must call it on every INV→valid transition
// (fetch install, direct-write allocation) with the block's base address.
func (b *Bus) BlockInstalled(pe int, base word.Addr) {
	idx := base >> b.blockShift
	pg := b.presence[idx>>presencePageShift]
	if pg == nil {
		pg = make([]uint64, presencePageLen)
		b.presence[idx>>presencePageShift] = pg
	}
	pg[idx&presencePageMask] |= 1 << uint(pe)
}

// BlockDropped records that pe's cache no longer holds the block based at
// base. Caches must call it on every valid→INV transition (eviction,
// remote invalidation, ER/RP purge, flush). A drop implies an earlier
// install, so the page exists; the nil check only keeps a spurious drop
// harmless.
func (b *Bus) BlockDropped(pe int, base word.Addr) {
	idx := base >> b.blockShift
	if pg := b.presence[idx>>presencePageShift]; pg != nil {
		pg[idx&presencePageMask] &^= 1 << uint(pe)
	}
}

// LockAcquired records that pe's lock directory registered one more held
// lock; LockReleased undoes it. The counts let lock polls skip PEs that
// hold no locks at all — the common case, since KL1 locks are brief and
// rare (Section 3.1).
func (b *Bus) LockAcquired(pe int) {
	b.lockCounts[pe]++
	b.totalLocks++
}

// LockReleased records that pe's lock directory released one held lock.
func (b *Bus) LockReleased(pe int) {
	if b.lockCounts[pe] == 0 {
		panic(fmt.Sprintf("bus: lock release underflow on PE %d", pe))
	}
	b.lockCounts[pe]--
	b.totalLocks--
}

// HolderMask returns the presence filter's holder bitmask for the block
// containing addr (bit i set = PE i holds a copy). Tests cross-check it
// against ScanHolders.
func (b *Bus) HolderMask(addr word.Addr) uint64 {
	return b.presenceAt(addr >> b.blockShift)
}

// ScanHolders polls every attached snooper's Holds for addr's block and
// returns the equivalent bitmask; it is the unfiltered ground truth the
// presence filter must always agree with.
func (b *Bus) ScanHolders(addr word.Addr) uint64 {
	var m uint64
	for i, s := range b.snoopers {
		if s != nil && s.Holds(addr) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// LockCount reports the lock filter's held-lock count for PE pe.
func (b *Bus) LockCount(pe int) int { return int(b.lockCounts[pe]) }

// TotalLockCount reports the lock filter's global held-lock count.
func (b *Bus) TotalLockCount() int { return b.totalLocks }

// remoteMask returns the bitmask of PEs the bus must snoop for the block
// based at base on behalf of requester: every other attached PE when the
// filters are off, only the actual remote holders when they are on.
func (b *Bus) remoteMask(requester int, base word.Addr) uint64 {
	if b.noFilters {
		return b.allMask &^ (1 << uint(requester))
	}
	return b.presenceAt(base>>b.blockShift) &^ (1 << uint(requester))
}

// remoteLocks counts locks held by PEs other than requester.
func (b *Bus) remoteLocks(requester int) int {
	return b.totalLocks - int(b.lockCounts[requester])
}

// PEs reports the number of attached processors.
func (b *Bus) PEs() int { return len(b.snoopers) }

// BlockWords reports the configured block size.
func (b *Bus) BlockWords() int { return b.blockWords }

// Stats returns a snapshot of the accumulated statistics.
func (b *Bus) Stats() Stats { return b.stats }

// ResetStats zeroes the counters (used after warm-up phases).
func (b *Bus) ResetStats() { b.stats = Stats{} }

// Memory exposes the shared-memory module (for machine composition and
// verification; normal accesses flow through transactions).
func (b *Bus) Memory() *mem.Memory { return b.memory }

// blockBase returns the base address of the block containing a.
func (b *Bus) blockBase(a word.Addr) word.Addr {
	return a &^ word.Addr(b.blockWords-1)
}

// SetProbe attaches (or, with nil, detaches) the telemetry sink. The
// machine propagates one sink to the bus and every cache; attaching
// mid-run is allowed but events before the attach are simply absent.
func (b *Bus) SetProbe(s probe.Sink) { b.probe = s }

// Probe returns the attached telemetry sink (nil when disabled). The
// caches read it to share the bus's sink and clock.
func (b *Bus) Probe() probe.Sink { return b.probe }

// Tick advances the probe clock by one cycle. The caches call it once
// per memory reference — only while a probe is attached, so disabled
// runs never touch it and remain cycle-exact with prior behaviour.
func (b *Bus) Tick() { b.ticks++ }

// ProbeClock is the simulated clock events are stamped with: total
// bus cycles plus one cycle per memory reference issued while the
// probe was attached. The reference component keeps the clock moving
// through hit-only phases so per-interval bus utilization is
// meaningful; both components are pure functions of the reference
// stream, so live runs and trace replays agree.
func (b *Bus) ProbeClock() uint64 { return b.ticks + b.stats.TotalCycles }

// actualHolders is the remote-holder bitmask reported in bus events:
// the presence filter when it is on, the ground-truth scan when it is
// off. The two are identical by the filter-equivalence invariant, so
// event streams do not depend on the filter setting.
func (b *Bus) actualHolders(requester int, addr word.Addr) uint64 {
	if b.noFilters {
		return b.ScanHolders(addr) &^ (1 << uint(requester))
	}
	return b.presenceAt(addr>>b.blockShift) &^ (1 << uint(requester))
}

// emitBegin and emitEnd report a bus transaction; callers check
// b.probe != nil first. cmd is the Section 3.3 command byte or
// probe.CmdNone; holders is the remote-holder mask captured before
// any snooping mutated it.
func (b *Bus) emitBegin(requester int, addr word.Addr, cmd uint8, holders uint64, withLock bool) {
	var lk uint32
	if withLock {
		lk = 1
	}
	b.probe.Emit(probe.Event{
		Kind: probe.KindBusBegin, Cycle: b.ProbeClock(), PE: int16(requester),
		Addr: addr, A: cmd, Arg: holders, N: lk,
	})
}

func (b *Bus) emitEnd(requester int, addr word.Addr, cmd, pat uint8, holders, cy uint64) {
	b.probe.Emit(probe.Event{
		Kind: probe.KindBusEnd, Cycle: b.ProbeClock(), PE: int16(requester),
		Addr: addr, A: cmd, B: pat, Arg: holders, N: uint32(cy),
	})
}

func (b *Bus) account(p Pattern, a word.Addr) uint64 {
	cy := b.cycleTab[p]
	b.stats.TotalCycles += cy
	b.stats.CyclesByArea[b.bounds.AreaOf(a)] += cy
	b.stats.CyclesByPattern[p] += cy
	b.stats.CountByPattern[p]++
	// The fetch or lone write-back occupies the memory module once
	// (nonzero only for the memory patterns); hidden victim write-backs
	// are charged by SwapOutHidden.
	b.stats.MemBusyCycles += b.memBusyTab[p]
	return cy
}

// lockHit polls remote lock directories for a lock on exactly addr,
// recording the waiter on a hit. With the lock filter on, the poll
// returns immediately when no remote PE holds any lock and otherwise
// visits only PEs with nonzero held-lock counts — a directory with no
// entries can neither hit nor change state, so skipping it is exact.
func (b *Bus) lockHit(requester int, addr word.Addr) bool {
	if !b.noFilters && b.remoteLocks(requester) == 0 {
		return false
	}
	hit := false
	for i, lu := range b.lockUnits {
		if i == requester || lu == nil {
			continue
		}
		if !b.noFilters && b.lockCounts[i] == 0 {
			continue
		}
		if lu.CheckLocked(addr) {
			hit = true
		}
	}
	if hit {
		b.stats.Commands[CmdLH]++
	}
	return hit
}

// lockedBlockElsewhere reports whether any remote PE holds a lock on any
// word of addr's block; such blocks are granted shared, never exclusive.
// Filtered the same way as lockHit (LocksInBlock has no side effects, so
// skipping lock-free PEs is trivially exact).
func (b *Bus) lockedBlockElsewhere(requester int, addr word.Addr) bool {
	if !b.noFilters && b.remoteLocks(requester) == 0 {
		return false
	}
	base := b.blockBase(addr)
	for i, lu := range b.lockUnits {
		if i == requester || lu == nil {
			continue
		}
		if !b.noFilters && b.lockCounts[i] == 0 {
			continue
		}
		if lu.LocksInBlock(base, b.blockWords) {
			return true
		}
	}
	return false
}

// open begins a transaction of command cmd for addr on behalf of
// requester. It counts the LK that rides with an LR (withLock) and polls
// the remote lock directories. On LH (Section 3.3: the requester
// busy-waits, then retries after the UL) the address broadcast is
// accounted as an invalidate-pattern transaction and reported as begin,
// lock conflict and end. An LR stops there; for any other command the
// retry follows at once, and open begins its transaction. lockHit
// reports whether LH was drawn.
func (b *Bus) open(requester int, addr word.Addr, cmd Command, withLock bool) (lockHit bool) {
	b.beginTransaction()
	if withLock {
		b.stats.Commands[CmdLK]++
	}
	if !b.lockHit(requester, addr) {
		return false
	}
	var holders uint64
	if b.probe != nil {
		holders = b.actualHolders(requester, addr)
	}
	cy := b.account(PatInval, addr)
	if b.probe != nil {
		b.emitBegin(requester, addr, uint8(cmd), holders, withLock)
		b.probe.Emit(probe.Event{
			Kind: probe.KindLockConflict, Cycle: b.ProbeClock(), PE: int16(requester), Addr: addr,
		})
		b.emitEnd(requester, addr, uint8(cmd), uint8(PatInval), holders, cy)
	}
	if !withLock {
		b.beginTransaction()
	}
	return true
}

// Fetch performs an F (inval=false) or FI (inval=true) transaction for
// the block containing addr, on behalf of requester. victimDirty reports
// whether the requester must also write back a dirty victim, which
// selects the with-swap-out pattern. withLock adds an LK broadcast (the
// LR operation). The returned data aliases a bus-owned buffer valid only
// until the next transaction (see FetchResult.Data).
func (b *Bus) Fetch(requester int, addr word.Addr, inval, victimDirty, withLock bool) FetchResult {
	cmd := CmdF
	if inval {
		cmd = CmdFI
	}
	var res FetchResult
	if res.LockHit = b.open(requester, addr, cmd, withLock); res.LockHit && withLock {
		return res
	}
	b.stats.Commands[cmd]++

	base := b.blockBase(addr)
	var holders uint64
	if b.probe != nil {
		// Captured before the snoop loop: FI snoops drop copies and
		// mutate the presence table.
		holders = b.actualHolders(requester, addr)
		b.emitBegin(requester, addr, uint8(cmd), holders, withLock)
	}
	// Whether some cache supplied the block. Tracked explicitly — not as
	// res.Data != nil — so the stats-only mode, which never materializes
	// Data, selects the identical pattern and command counts.
	fromCache := false
	// Visit the (filtered) snoop set in ascending PE order — the same
	// order the unfiltered scan used, so supplier selection is identical.
	// Snoopers invalidated mid-loop mutate b.presence; m is a local copy,
	// so the iteration is unaffected.
	for m := b.remoteMask(requester, base); m != 0; m &= m - 1 {
		s := b.snoopers[bits.TrailingZeros64(m)]
		if s == nil {
			continue
		}
		data, held, supplies, dirty, retained := s.SnoopFetch(addr, inval)
		if !held {
			continue
		}
		b.stats.Commands[CmdH]++
		if supplies && !fromCache {
			fromCache = true
			res.FromCache = true
			if !b.statsOnly {
				res.Data = append(b.blockBuf[:0], data...)
			}
		}
		if dirty {
			// The dirty copy wins: at most one modified copy exists under
			// either protocol, and it is the authoritative one.
			res.SupplierDirty = true
			if !b.statsOnly {
				res.Data = append(res.Data[:0], data...)
			}
		}
		if retained {
			res.Shared = true
		}
	}
	var pat Pattern
	if !fromCache {
		// No cache held the block: shared memory supplies it.
		if !b.statsOnly {
			res.Data = b.blockBuf[:b.blockWords]
			b.memory.ReadBlock(base, res.Data)
		}
		if victimDirty {
			pat = PatSwapInMemSwapOut
		} else {
			pat = PatSwapInMem
		}
	} else {
		if victimDirty {
			pat = PatC2CSwapOut
		} else {
			pat = PatC2C
		}
	}
	cy := b.account(pat, addr)
	if b.probe != nil {
		b.emitEnd(requester, addr, uint8(cmd), uint8(pat), holders, cy)
	}
	if !res.Shared && b.lockedBlockElsewhere(requester, addr) {
		// A remote PE holds a lock on a (possibly swapped-out) word of
		// this block: deny exclusivity — even on FI — so that a later LR
		// to the locked word cannot hit an exclusive block and bypass the
		// bus, which would let two PEs hold the same lock.
		res.Shared = true
	}
	return res
}

// RemoteLockInBlock reports whether a PE other than requester holds a
// lock on any word of addr's block. Writers consult it to settle in SM
// rather than EM, preserving the no-exclusive-block-over-a-remote-lock
// invariant.
func (b *Bus) RemoteLockInBlock(requester int, addr word.Addr) bool {
	return b.lockedBlockElsewhere(requester, addr)
}

// RemoteHolder reports whether any cache other than requester holds a
// valid copy of the block containing addr. This is the snoop-result peek
// the cache controller uses to select among the ER and RP sub-behaviours
// before committing to a bus command. With the presence filter it is one
// table load; unfiltered it polls every snooper.
func (b *Bus) RemoteHolder(requester int, addr word.Addr) bool {
	if !b.noFilters {
		return b.presenceAt(addr>>b.blockShift)&^(1<<uint(requester)) != 0
	}
	for i, s := range b.snoopers {
		if i == requester || s == nil {
			continue
		}
		if s.Holds(addr) {
			return true
		}
	}
	return false
}

// Invalidate performs an I transaction for the block containing addr
// (write hit on a shared block, or LR taking ownership with LK).
// lockHit reports that a remote lock directory responded LH: an LR
// (withLock) then invalidated nothing and must busy-wait, while any other
// caller's retry has already run. dirtyKilled reports that an invalidated
// remote copy was modified: the requester's own copy is now the only one
// holding that data, so a requester that stays clean after the upgrade
// would silently lose it — it must take write-back ownership.
func (b *Bus) Invalidate(requester int, addr word.Addr, withLock bool) (lockHit, dirtyKilled bool) {
	if lockHit = b.open(requester, addr, CmdI, withLock); lockHit && withLock {
		return true, false
	}
	b.stats.Commands[CmdI]++
	var holders uint64
	if b.probe != nil {
		holders = b.actualHolders(requester, addr)
		b.emitBegin(requester, addr, uint8(CmdI), holders, withLock)
	}
	cy := b.account(PatInval, addr)
	// SnoopInvalidate is a no-op on non-holders, so visiting only the
	// filtered holder set is exact.
	for m := b.remoteMask(requester, b.blockBase(addr)); m != 0; m &= m - 1 {
		if s := b.snoopers[bits.TrailingZeros64(m)]; s != nil {
			if s.SnoopInvalidate(addr) {
				dirtyKilled = true
			}
		}
	}
	if b.probe != nil {
		b.emitEnd(requester, addr, uint8(CmdI), uint8(PatInval), holders, cy)
	}
	return lockHit, dirtyKilled
}

// Update performs a UP transaction for addr on behalf of requester: the
// written word w is broadcast to every other holder of addr's block (the
// write-update protocols' alternative to Invalidate). Memory is not
// written — the requester owns the eventual write-back. lockHit reports
// that a remote lock directory responded LH (locks keep their
// invalidate-era semantics: a store to a remotely locked word
// busy-waits); the broadcast then ran as the retry after the unlock.
// shared reports that at least one remote holder retained a copy after
// the broadcast, so the writer must settle in its dirty-shared state.
func (b *Bus) Update(requester int, addr word.Addr, w word.Word) (lockHit, shared bool) {
	lockHit = b.open(requester, addr, CmdUP, false)
	b.stats.Commands[CmdUP]++
	var holders uint64
	if b.probe != nil {
		holders = b.actualHolders(requester, addr)
		b.emitBegin(requester, addr, uint8(CmdUP), holders, false)
	}
	cy := b.account(PatUpdate, addr)
	// SnoopUpdate is a no-op on non-holders, so visiting only the
	// filtered holder set is exact. Holders self-invalidating mid-loop
	// (the adaptive protocol) mutate b.presence; m is a local copy, so
	// the iteration is unaffected.
	for m := b.remoteMask(requester, b.blockBase(addr)); m != 0; m &= m - 1 {
		if s := b.snoopers[bits.TrailingZeros64(m)]; s != nil {
			held, retained := s.SnoopUpdate(addr, w)
			if held {
				b.stats.Commands[CmdH]++
			}
			if retained {
				shared = true
			}
		}
	}
	if b.probe != nil {
		b.emitEnd(requester, addr, uint8(CmdUP), uint8(PatUpdate), holders, cy)
	}
	return lockHit, shared
}

// SwapOut writes requester's dirty victim block back to shared memory
// as a lone transaction (the DW-only pattern; fetch-driven write-backs
// are costed inside Fetch).
func (b *Bus) SwapOut(requester int, base word.Addr, data []word.Word) {
	b.beginTransaction()
	if b.probe != nil {
		b.emitBegin(requester, base, probe.CmdNone, 0, false)
	}
	if !b.statsOnly {
		b.memory.WriteBlock(base, data)
	}
	cy := b.account(PatSwapOutOnly, base)
	if b.probe != nil {
		b.emitEnd(requester, base, probe.CmdNone, uint8(PatSwapOutOnly), 0, cy)
	}
}

// SwapOutHidden writes a dirty victim back to memory during a fetch; the
// bus cycles were already accounted by the with-swap-out fetch pattern,
// but the memory module is still occupied absorbing the write.
func (b *Bus) SwapOutHidden(base word.Addr, data []word.Word) {
	if !b.statsOnly {
		b.memory.WriteBlock(base, data)
	}
	b.stats.MemBusyCycles += uint64(b.timing.MemCycles)
}

// MemoryWriteBack writes a block to memory charging memory-module
// occupancy but no bus cycles. The Illinois baseline uses it for its
// copy-back-on-transfer (the reflection rides the bus transfer already
// accounted, but the memory module is busy absorbing it), and cache
// flushes outside measurement windows use it for correctness only.
func (b *Bus) MemoryWriteBack(base word.Addr, data []word.Word) {
	if !b.statsOnly {
		b.memory.WriteBlock(base, data)
	}
	b.stats.MemBusyCycles += uint64(b.timing.MemCycles)
}

// WordWrite performs a write-through store of one word to shared memory,
// invalidating all other cached copies (write-through-with-invalidate,
// the baseline the copy-back protocols are measured against).
func (b *Bus) WordWrite(requester int, addr word.Addr, w word.Word) {
	b.beginTransaction()
	var holders uint64
	if b.probe != nil {
		holders = b.actualHolders(requester, addr)
		b.emitBegin(requester, addr, probe.CmdNone, holders, false)
	}
	if !b.statsOnly {
		b.memory.Write(addr, w)
	}
	cy := b.account(PatWordWrite, addr)
	for m := b.remoteMask(requester, b.blockBase(addr)); m != 0; m &= m - 1 {
		if s := b.snoopers[bits.TrailingZeros64(m)]; s != nil {
			// Write-through blocks are never dirty, so the response is
			// unused here.
			s.SnoopInvalidate(addr)
		}
	}
	if b.probe != nil {
		b.emitEnd(requester, addr, probe.CmdNone, uint8(PatWordWrite), holders, cy)
	}
}

// Unlock broadcasts UL for addr, waking busy-waiting PEs. The paper's
// optimization — suppressing the broadcast when no PE waits — is decided
// by the caller (the lock directory), so every call here costs cycles.
// The broadcast is never filtered: the PEs that must observe it are the
// busy-waiters, which by definition hold no locks and no copy of the
// block, so neither presence filter can name them.
func (b *Bus) Unlock(requester int, addr word.Addr) {
	b.beginTransaction()
	b.stats.Commands[CmdUL]++
	if b.probe != nil {
		b.emitBegin(requester, addr, uint8(CmdUL), 0, false)
	}
	cy := b.account(PatUnlock, addr)
	for i, lu := range b.lockUnits {
		if i == requester || lu == nil {
			continue
		}
		lu.ObserveUnlock(addr)
	}
	if b.probe != nil {
		b.emitEnd(requester, addr, uint8(CmdUL), uint8(PatUnlock), 0, cy)
	}
}
