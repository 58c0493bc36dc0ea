package cache

import (
	"fmt"
	"math/bits"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// Cache is one PE's coherent cache plus its lock directory. It implements
// mem.Accessor on the processor side and bus.Snooper/bus.LockUnit on the
// bus side.
//
// Storage is struct-of-arrays: instead of a slice-of-slices of line
// structs, the directory lives in flat planes indexed by frame number
// (set*ways + way). The hot path — lookup, LRU touch, victim choice —
// scans a packed tag plane where a default-geometry set is half a host
// cache line, so a reference costs one or two lines of host memory
// instead of chasing pointers into per-line structs. The state and
// base planes back the coherence bookkeeping, and the data plane is
// one flat word slice (frame f's block at f*BlockWords).
//
// A block occupies at most one frame: every install goes through a miss
// (lookup failed) or a restored snapshot that Restore has checked, and the
// 4-way lookup relies on it.
//
// A Cache is not safe for concurrent use; the machine steps PEs
// deterministically and the bus serializes all coherence activity.
type Cache struct {
	cfg Config
	pe  int
	bus *bus.Bus
	// bounds is the shared memory's area map, copied in so the
	// per-reference area classification is a static, inlinable call
	// instead of an indirect one through a func value.
	bounds mem.Bounds

	// SoA planes, indexed by frame = setIndex*ways + way. data is nil
	// when the cache runs stats-only (noData): coherence never reads it,
	// so dropping it removes the block copies and DW zero-fills from the
	// replay hot path without changing any statistic.
	states []State
	bases  []word.Addr
	data   []word.Word
	noData bool

	// tags is the hot directory plane: frame f's packed tag is
	// base<<8|state for a valid frame, invalidTag (zero) otherwise, so a
	// lookup compares one word per way and a whole default-geometry set
	// is half a host cache line. The entries mirror states+bases; the
	// three mutation points (install, setState, drop) keep them
	// coherent. LRU clocks live in their own plane, touched only on
	// hits, installs and victim search.
	tags []uint64
	lru  []uint64

	// proto is the coherence FSM (a stateless singleton from the
	// registry). The three capability fields cache its mode answers so
	// the hit paths and the write-path dispatch never make an interface
	// call; proto itself is consulted only on miss/snoop/upgrade paths.
	proto    CoherenceProtocol
	isWT     bool // proto.WriteThrough()
	isUpdate bool // proto.WriteUpdate()
	updLimit int  // proto.UpdateSelfInvalidate()
	// updCounts is the adaptive protocol's per-frame consecutive
	// received-update counter plane (nil otherwise): bumped by each
	// applied UP broadcast, reset by any local touch, and the frame is
	// dropped when a count reaches updLimit.
	updCounts []uint8

	ways    int
	bw      int // block words (frame stride in the data plane)
	setMask word.Addr
	offMask word.Addr
	blockW  word.Addr
	// blockShift is log2(blockW): the set-index computation runs on
	// every reference, and a shift beats the divide the compiler would
	// otherwise emit for the variable block size.
	blockShift uint
	lruClock   uint64
	dir        *lockDir
	stats      Stats

	// Busy-wait state: set when an LR received the LH response; cleared
	// by the matching UL broadcast. While set the PE spins without bus
	// traffic and the machine does not step it.
	blocked   bool
	blockedOn word.Addr

	// probe, when non-nil, receives per-reference, state-transition and
	// lock telemetry (bus-level events are emitted by the bus itself).
	// Kept as a direct field so the per-reference hot path pays one nil
	// check, not a bus method call.
	probe probe.Sink
}

// New builds a cache for PE pe and attaches it to b.
func New(cfg Config, pe int, b *bus.Bus) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BlockWords != b.BlockWords() {
		panic(fmt.Sprintf("cache: block size %d differs from bus block size %d",
			cfg.BlockWords, b.BlockWords()))
	}
	if cfg.StatsOnly != b.StatsOnly() {
		// A stats-only cache supplies nil snoop data; a data-carrying bus
		// would copy it as a zero block and corrupt other caches. The two
		// sides must agree (machine.New wires them together).
		panic(fmt.Sprintf("cache: StatsOnly=%v but bus StatsOnly=%v",
			cfg.StatsOnly, b.StatsOnly()))
	}
	sets := cfg.Sets()
	frames := sets * cfg.Ways
	var data []word.Word
	if !cfg.StatsOnly {
		data = make([]word.Word, frames*cfg.BlockWords)
	}
	c := &Cache{
		cfg:        cfg,
		pe:         pe,
		bus:        b,
		bounds:     b.Memory().Bounds(),
		states:     make([]State, frames),
		bases:      make([]word.Addr, frames),
		tags:       make([]uint64, frames),
		lru:        make([]uint64, frames),
		data:       data,
		noData:     cfg.StatsOnly,
		ways:       cfg.Ways,
		bw:         cfg.BlockWords,
		setMask:    word.Addr(sets - 1),
		offMask:    word.Addr(cfg.BlockWords - 1),
		blockW:     word.Addr(cfg.BlockWords),
		blockShift: uint(bits.TrailingZeros(uint(cfg.BlockWords))),
		dir:        newLockDir(cfg.LockEntries),
	}
	c.proto = cfg.Protocol.Impl()
	c.isWT = c.proto.WriteThrough()
	c.isUpdate = c.proto.WriteUpdate()
	c.updLimit = c.proto.UpdateSelfInvalidate()
	if c.updLimit > 0 {
		c.updCounts = make([]uint8, frames)
	}
	b.Attach(pe, c, c)
	return c
}

// Protocol returns the coherence FSM this cache runs.
func (c *Cache) Protocol() CoherenceProtocol { return c.proto }

// PE returns the processor index.
func (c *Cache) PE() int { return c.pe }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetProbe attaches (or, with nil, detaches) the telemetry sink. Use
// machine.SetProbe to wire a whole cluster; standalone caches (trace
// replay) are wired by their driver. The bus must carry the same sink
// so the shared probe clock advances.
func (c *Cache) SetProbe(s probe.Sink) { c.probe = s }

// Blocked reports whether the PE is busy-waiting on a remote lock.
func (c *Cache) Blocked() bool { return c.blocked }

// BlockedOn returns the address being waited for (valid when Blocked).
func (c *Cache) BlockedOn() word.Addr { return c.blockedOn }

func (c *Cache) blockBase(a word.Addr) word.Addr { return a &^ c.offMask }

// frameData returns frame f's block in the data plane, or nil when the
// cache runs stats-only (copies from/to a nil block are no-ops; the bus
// never dereferences snoop data in stats-only mode).
func (c *Cache) frameData(f int) []word.Word {
	if c.noData {
		return nil
	}
	o := f * c.bw
	return c.data[o : o+c.bw : o+c.bw]
}

// loadWord returns the cached word at a in frame f (zero when
// stats-only; replay discards read values).
func (c *Cache) loadWord(f int, a word.Addr) word.Word {
	if c.noData {
		return 0
	}
	return c.data[f*c.bw+int(a&c.offMask)]
}

// storeWord stores w at a in frame f (no-op when stats-only).
func (c *Cache) storeWord(f int, a word.Addr, w word.Word) {
	if c.noData {
		return
	}
	c.data[f*c.bw+int(a&c.offMask)] = w
}

// invalidTag marks an INV frame in the tag plane. Zero is free: a valid
// frame's tag carries a nonzero state byte (the valid states are
// 1..numStates-1),
// so no valid tag collides with it, and a fresh plane needs no fill pass
// beyond make's zeroing.
const invalidTag = uint64(0)

// frameTag packs a valid frame's identity for the tag plane.
func frameTag(base word.Addr, st State) uint64 {
	return uint64(base)<<8 | uint64(st)
}

// lookup returns the frame holding a, or -1. This is the hot path: it
// reads the ways of one set from the packed tag plane only. A frame
// matches iff tag^want is a valid (nonzero) state, i.e. in 1..numStates-1
// — one XOR and one unsigned compare per way.
//
// The 4-way base geometry tests way 0 with a branch the host predicts
// well (victimFor fills the first invalid way, so on hit-dominated
// replays way 0 takes the largest share of hits), then matches ways 1–3
// without branches: each compare's borrow is 1 on a match, and the
// borrows fold into the way number. The fold is exact only because a
// block occupies at most one frame. Other geometries scan.
func (c *Cache) lookup(a word.Addr) int {
	want := uint64(a&^c.offMask) << 8
	f := int((a>>c.blockShift)&c.setMask) * c.ways
	if c.ways == 4 {
		d := c.tags[f : f+4 : f+4]
		if (d[0]^want)-1 < uint64(numStates)-1 {
			return f
		}
		_, m1 := bits.Sub64((d[1]^want)-1, uint64(numStates)-1, 0)
		_, m2 := bits.Sub64((d[2]^want)-1, uint64(numStates)-1, 0)
		_, m3 := bits.Sub64((d[3]^want)-1, uint64(numStates)-1, 0)
		// hit is 1 on a match in ways 1–3, else 0, which yields -1.
		hit := int(m1 | m2 | m3)
		return hit*(f+int(m1+2*m2+3*m3)+1) - 1
	}
	d := c.tags[f : f+c.ways]
	for i := range d {
		if (d[i]^want)-1 < uint64(numStates)-1 {
			return f + i
		}
	}
	return -1
}

func (c *Cache) touch(f int) {
	c.lruClock++
	c.lru[f] = c.lruClock
	if c.updCounts != nil {
		// Any local access resets the adaptive protocol's competitive
		// counter: the block is not migratory from this PE's view.
		c.updCounts[f] = 0
	}
}

// victimFor picks the replacement frame for a block that will be
// installed at a: an invalid frame if one exists, else the LRU frame.
func (c *Cache) victimFor(a word.Addr) int {
	f := int((a>>c.blockShift)&c.setMask) * c.ways
	d := c.tags[f : f+c.ways]
	victim := f
	for i := range d {
		if d[i] == invalidTag {
			return f + i
		}
		if c.lru[f+i] < c.lru[victim] {
			victim = f + i
		}
	}
	return victim
}

// emitState reports a state transition on the block based at base;
// callers check c.probe != nil.
func (c *Cache) emitState(base word.Addr, from, to State, reason uint64) {
	c.probe.Emit(probe.Event{
		Kind: probe.KindCacheState, Cycle: c.bus.ProbeClock(), PE: int16(c.pe),
		Addr: base, A: uint8(from), B: uint8(to), Arg: reason,
	})
}

// setState changes frame f's state in place, reporting the transition.
// Only valid→valid transitions go through it; INV crossings use install
// and drop, which also maintain the bus presence filter.
func (c *Cache) setState(f int, to State, reason uint64) {
	if c.probe != nil && c.states[f] != to {
		c.emitState(c.bases[f], c.states[f], to, reason)
	}
	c.states[f] = to
	c.tags[f] = frameTag(c.bases[f], to)
}

// install marks frame f as holding the block based at base in state st
// and notifies the bus presence filter. Every INV→valid transition must
// go through it (the filter's exactness is what makes filtered snooping
// equivalent to the full scan).
func (c *Cache) install(f int, base word.Addr, st State, reason uint64) {
	c.bases[f] = base
	c.states[f] = st
	c.tags[f] = frameTag(base, st)
	c.bus.BlockInstalled(c.pe, base)
	if c.probe != nil {
		c.emitState(base, INV, st, reason)
	}
}

// drop invalidates frame f, notifying the bus presence filter. It is a
// no-op on an already-invalid frame.
func (c *Cache) drop(f int, reason uint64) {
	if c.states[f] != INV {
		skipFilter := Faults.SkipFilterDrop ||
			(Faults.AdaptiveDropSkipFilter && reason == probe.ReasonAdaptiveDrop)
		if !skipFilter {
			c.bus.BlockDropped(c.pe, c.bases[f])
		}
		if c.probe != nil {
			c.emitState(c.bases[f], c.states[f], INV, reason)
		}
		c.states[f] = INV
		c.tags[f] = invalidTag
	}
}

// evictHidden writes back a dirty victim through the hidden path (its
// bus cost is folded into the with-swap-out fetch pattern chosen by the
// caller).
func (c *Cache) evictHidden(f int) {
	if c.states[f].Dirty() && !(Faults.MOESIDropOwnedWriteBack && c.states[f] == O) {
		c.bus.SwapOutHidden(c.bases[f], c.frameData(f))
		c.stats.SwapOuts++
	}
	c.drop(f, probe.ReasonEvict)
}

// miss records a miss under op and reports it to the probe.
func (c *Cache) miss(a word.Addr, op Op) {
	c.stats.Misses[op]++
	if c.probe != nil {
		c.probe.Emit(probe.Event{
			Kind: probe.KindMiss, Cycle: c.bus.ProbeClock(), PE: int16(c.pe),
			Addr: a, A: uint8(op),
		})
	}
}

// fetchInto performs the bus fetch for a (F when inval is false, FI when
// true), handling the victim write-back and the busy-wait-then-proceed
// simplification for non-lock operations, and installs the block. It
// returns the installed frame.
//
// Plain R/W operations that hit a remotely locked word are modelled as
// one aborted (LH) attempt followed by the post-unlock retry: the retry's
// traffic is the fetch we issue here. This is safe functionally because
// KL1 data is single-assignment — the value observable before the lock's
// UW is the consistent pre-state.
func (c *Cache) fetchInto(a word.Addr, inval bool) int {
	victim := c.victimFor(a)
	vdirty := c.states[victim].Dirty()
	res := c.bus.Fetch(c.pe, a, inval, vdirty, false)
	if res.LockHit {
		c.stats.BusyWaits++
		res = c.bus.FetchForced(c.pe, a, inval, vdirty)
	}
	c.evictHidden(victim)
	copy(c.frameData(victim), res.Data)
	st := c.proto.FetchState(inval, res.FromCache, res.SupplierDirty, res.Shared)
	c.install(victim, c.blockBase(a), st, probe.ReasonFetch)
	c.touch(victim)
	return victim
}

// readInternal is the plain-read path shared by R and the degraded forms
// of ER/RP/RI. It records hit/miss under op.
func (c *Cache) readInternal(a word.Addr, op Op) word.Word {
	if f := c.lookup(a); f >= 0 {
		return c.readHit(f, a, op)
	}
	c.miss(a, op)
	f := c.fetchInto(a, false)
	return c.loadWord(f, a)
}

// readHit is readInternal's hit half, for callers that already looked
// up the frame f holding a.
func (c *Cache) readHit(f int, a word.Addr, op Op) word.Word {
	c.stats.Hits[op]++
	c.touch(f)
	return c.loadWord(f, a)
}

// writeInternal is the plain-write path shared by W, UW and degraded DW.
// It records hit/miss under op.
func (c *Cache) writeInternal(a word.Addr, w word.Word, op Op) {
	if c.isWT {
		// Write-through with invalidation, write-no-allocate: the store
		// goes straight to memory (one bus transaction per write), other
		// copies die, a present local copy is updated in place, and no
		// block is ever dirty.
		if f := c.lookup(a); f >= 0 {
			c.stats.Hits[op]++
			c.touch(f)
			c.storeWord(f, a, w)
		} else {
			c.miss(a, op)
		}
		c.bus.WordWrite(c.pe, a, w)
		return
	}
	if f := c.lookup(a); f >= 0 {
		c.writeHit(f, a, w, op)
		return
	}
	c.miss(a, op)
	if c.isUpdate {
		// Write-update miss: fetch without invalidating; if the grant
		// was shared, broadcast the word to the other holders.
		f := c.fetchInto(a, false)
		if !c.states[f].Exclusive() {
			c.updateShared(f, a, w)
		} else {
			c.setState(f, EM, probe.ReasonWrite)
		}
		c.storeWord(f, a, w)
		return
	}
	f := c.fetchInto(a, true) // fetch-on-write, invalidating other copies
	// A lock-forced non-exclusive grant keeps the writer dirty-shared.
	locked := !c.states[f].Exclusive() && !Faults.GrantEMOverRemoteLock
	c.setState(f, c.proto.WriteOwnState(locked), probe.ReasonWrite)
	c.storeWord(f, a, w)
}

// writeHit is writeInternal's copy-back hit half, for callers that
// already looked up the frame f holding a.
func (c *Cache) writeHit(f int, a word.Addr, w word.Word, op Op) {
	c.stats.Hits[op]++
	c.touch(f)
	switch st := c.states[f]; {
	case st == EC:
		c.setState(f, EM, probe.ReasonWrite)
	case !st.Exclusive():
		// Writing a shared block. Invalidate protocols kill the other
		// copies; the block stays non-exclusive if a remote PE holds
		// a lock on one of its words (see Bus.RemoteLockInBlock), and
		// a killed remote dirty copy needs no special handling here:
		// the writer's copy becomes modified either way. Update
		// protocols broadcast the word to the other copies instead.
		if c.isUpdate {
			c.updateShared(f, a, w)
			break
		}
		if ok, _ := c.bus.Invalidate(c.pe, a, false); !ok {
			c.stats.BusyWaits++
			c.bus.ForceInvalidate(c.pe, a)
		}
		locked := c.bus.RemoteLockInBlock(c.pe, a) && !Faults.GrantEMOverRemoteLock
		c.setState(f, c.proto.WriteOwnState(locked), probe.ReasonWrite)
	}
	c.storeWord(f, a, w)
}

// updateShared performs the write-update protocols' shared-block write:
// a UP broadcast carrying the word to every other holder. The writer
// becomes the block's dirty owner — Sm (stored as SM) while any holder
// retains a copy or a remote lock denies exclusivity, M (stored as EM)
// once it is alone. Memory is NOT updated: the owner carries the
// write-back, which preserves the clean-copies-match-memory invariant
// the differential checker pins.
func (c *Cache) updateShared(f int, a word.Addr, w word.Word) {
	ok, shared := c.bus.Update(c.pe, a, w)
	if !ok {
		c.stats.BusyWaits++
		shared = c.bus.ForceUpdate(c.pe, a, w)
	}
	if shared || c.bus.RemoteLockInBlock(c.pe, a) {
		c.setState(f, SM, probe.ReasonWrite)
	} else {
		c.setState(f, EM, probe.ReasonWrite)
	}
}

func (c *Cache) countRef(a word.Addr, op Op) mem.Area {
	area := c.bounds.AreaOf(a)
	c.countRefIn(a, area, op)
	return area
}

// countRefIn is countRef with the area already classified — trace
// replay carries each ref's area from where the ref was produced and
// skips the per-reference AreaOf branch chain.
func (c *Cache) countRefIn(a word.Addr, area mem.Area, op Op) {
	c.stats.Refs[area][op]++
	if c.probe != nil {
		c.emitRef(a, op)
	}
}

// emitRef reports a reference to the probe. The reference advances the
// probe clock by one cycle (the cache access itself), so the clock keeps
// moving through hit-only phases; disabled runs never tick. It is kept
// out of countRefIn so that the per-reference counter inlines.
func (c *Cache) emitRef(a word.Addr, op Op) {
	c.bus.Tick()
	c.probe.Emit(probe.Event{
		Kind: probe.KindRef, Cycle: c.bus.ProbeClock(), PE: int16(c.pe),
		Addr: a, A: uint8(op),
	})
}

// Read implements the R operation.
func (c *Cache) Read(a word.Addr) word.Word {
	c.countRef(a, OpR)
	return c.readInternal(a, OpR)
}

// Write implements the W operation (copy-back, fetch-on-write).
func (c *Cache) Write(a word.Addr, w word.Word) {
	c.countRef(a, OpW)
	c.writeInternal(a, w, OpW)
}

// DirectWrite implements DW: when the address opens a fresh cache block
// (block-boundary miss) the block is allocated without fetching from
// shared memory; otherwise the controller automatically replaces DW with
// W, exactly as in Section 3.2(1). Software guarantees no remote cache
// holds the target block; Config.VerifyDW checks that contract.
func (c *Cache) DirectWrite(a word.Addr, w word.Word) {
	area := c.countRef(a, OpDW)
	c.directWrite(a, w, area)
}

func (c *Cache) directWrite(a word.Addr, w word.Word, area mem.Area) {
	if c.isWT {
		// DW exists to avoid the fetch-on-write of a copy-back cache;
		// write-through has no fetch-on-write to avoid.
		c.stats.DWDegraded++
		c.writeInternal(a, w, OpDW)
		return
	}
	if !c.cfg.Options.Enabled(area, OptDW) || a&c.offMask != 0 {
		c.stats.DWDegraded++
		c.writeInternal(a, w, OpDW)
		return
	}
	if f := c.lookup(a); f >= 0 {
		// Already resident (a previous DW to this block): a plain hit.
		c.stats.DWDegraded++
		c.writeHit(f, a, w, OpDW)
		return
	}
	if c.isUpdate && !Faults.SkipDWUpdateInval && c.bus.RemoteHolder(c.pe, a) {
		// The DW software contract ("no remote cache holds the block")
		// is free under invalidation-based coherence: the last store the
		// block's previous owner made killed every other copy, so by the
		// time software recycles the record with DW nothing remote can
		// hold it. Write-update protocols break that reasoning — their
		// stores refresh remote copies instead of killing them, so a
		// reader's copy from the record's previous life survives into
		// the DW, and the silent exclusive install below would leave it
		// stale forever (no later UP reaches a block the writer never
		// broadcast for). Buy the premise back with an explicit I
		// transaction, exactly as locks do (locks stay invalidate-based
		// under the update protocols too). A killed dirty copy needs no
		// ownership hand-off: DW replaces the whole block's content.
		c.stats.DWUpdateInvals++
		if ok, _ := c.bus.Invalidate(c.pe, a, false); !ok {
			c.stats.BusyWaits++
			c.bus.ForceInvalidate(c.pe, a)
		}
	}
	if c.cfg.VerifyDW && c.bus.RemoteHolder(c.pe, a) {
		panic(fmt.Sprintf("cache: DW contract violation at %#x: remote copy exists", a))
	}
	c.stats.DWApplied++
	c.miss(a, OpDW)
	victim := c.victimFor(a)
	if c.states[victim].Dirty() {
		// The only bus activity a direct write can cause: the lone
		// swap-out pattern (five cycles at base parameters).
		c.bus.SwapOut(c.pe, c.bases[victim], c.frameData(victim))
		c.stats.SwapOuts++
	}
	c.drop(victim, probe.ReasonEvict)
	if !c.noData {
		vd := c.frameData(victim)
		for i := range vd {
			vd[i] = 0
		}
		vd[a&c.offMask] = w
	}
	c.install(victim, c.blockBase(a), EM, probe.ReasonDirectWrite)
	c.touch(victim)
}

// ExclusiveRead implements ER per Section 3.2(2): (i) on a miss to a
// block held remotely, when the address is not the block's last word, it
// acts as read-invalidate; (ii) on a hit to the block's last word it
// purges the local copy after reading (read-purge); (iii) otherwise it is
// a plain R.
func (c *Cache) ExclusiveRead(a word.Addr) word.Word {
	area := c.countRef(a, OpER)
	return c.exclusiveRead(a, area)
}

func (c *Cache) exclusiveRead(a word.Addr, area mem.Area) word.Word {
	if c.isWT {
		c.stats.ERDegraded++
		return c.readInternal(a, OpER)
	}
	if !c.cfg.Options.Enabled(area, OptER) {
		c.stats.ERDegraded++
		return c.readInternal(a, OpER)
	}
	last := a&c.offMask == c.offMask
	if f := c.lookup(a); f >= 0 {
		v := c.readHit(f, a, OpER)
		if last {
			// Case (ii): the block is dead after this read; discard it
			// even if modified — that is the whole point (the data is
			// write-once/read-once, so the swap-out would be useless).
			if c.states[f].Dirty() {
				c.stats.PurgedDirty++
			}
			c.drop(f, probe.ReasonPurge)
			c.stats.ERPurge++
		} else {
			c.stats.ERDegraded++
		}
		return v
	}
	c.miss(a, OpER)
	if !last && c.bus.RemoteHolder(c.pe, a) {
		// Case (i): fetch with invalidation of the supplier.
		c.stats.ERInval++
		f := c.fetchInto(a, true)
		return c.loadWord(f, a)
	}
	// Case (iii).
	c.stats.ERDegraded++
	f := c.fetchInto(a, false)
	return c.loadWord(f, a)
}

// ReadPurge implements RP per Section 3.2(3): on a hit the block is
// purged after the read; on a miss to a remotely held block the data is
// transferred, the supplier invalidated, and nothing is installed locally
// (the fetched block is "forcibly purged after the RP operation").
func (c *Cache) ReadPurge(a word.Addr) word.Word {
	area := c.countRef(a, OpRP)
	return c.readPurge(a, area)
}

func (c *Cache) readPurge(a word.Addr, area mem.Area) word.Word {
	if c.isWT {
		c.stats.RPDegraded++
		return c.readInternal(a, OpRP)
	}
	if !c.cfg.Options.Enabled(area, OptRP) {
		c.stats.RPDegraded++
		return c.readInternal(a, OpRP)
	}
	if f := c.lookup(a); f >= 0 {
		c.stats.Hits[OpRP]++
		v := c.loadWord(f, a)
		if c.states[f].Dirty() {
			c.stats.PurgedDirty++
		}
		c.drop(f, probe.ReasonPurge)
		c.stats.RPApplied++
		return v
	}
	c.miss(a, OpRP)
	if c.bus.RemoteHolder(c.pe, a) {
		res := c.bus.Fetch(c.pe, a, true, false, false)
		if res.LockHit {
			c.stats.BusyWaits++
			res = c.bus.FetchForced(c.pe, a, true, false)
		}
		c.stats.RPApplied++
		if c.noData {
			return 0
		}
		return res.Data[a&c.offMask]
	}
	// Memory-resident block: a plain read (the paper defines the purge
	// behaviour only for hits and remote suppliers).
	c.stats.RPDegraded++
	f := c.fetchInto(a, false)
	return c.loadWord(f, a)
}

// ReadInvalidate implements RI per Section 3.2(4): a read that takes the
// block exclusively when it is supplied by another cache, so that the
// rewrite that immediately follows needs no invalidate bus command.
func (c *Cache) ReadInvalidate(a word.Addr) word.Word {
	area := c.countRef(a, OpRI)
	return c.readInvalidate(a, area)
}

func (c *Cache) readInvalidate(a word.Addr, area mem.Area) word.Word {
	if c.isWT {
		c.stats.RIDegraded++
		return c.readInternal(a, OpRI)
	}
	if !c.cfg.Options.Enabled(area, OptRI) {
		c.stats.RIDegraded++
		return c.readInternal(a, OpRI)
	}
	if f := c.lookup(a); f >= 0 {
		c.stats.RIDegraded++
		return c.readHit(f, a, OpRI)
	}
	c.miss(a, OpRI)
	if c.bus.RemoteHolder(c.pe, a) {
		c.stats.RIApplied++
		f := c.fetchInto(a, true)
		return c.loadWord(f, a)
	}
	// Memory supplies with no sharers: the plain fetch already grants
	// exclusivity (EC), so RI adds nothing.
	c.stats.RIDegraded++
	f := c.fetchInto(a, false)
	return c.loadWord(f, a)
}

// LockRead implements LR per Section 3.1/3.3. On a hit to an exclusive
// block no bus command is needed (the no-cost case Table 5 measures).
// Otherwise LK rides with I (shared hit) or FI (miss); if a remote lock
// directory answers LH, ok is false: the caller must drop any locks it
// holds and retry after the machine unblocks this PE on the UL broadcast.
func (c *Cache) LockRead(a word.Addr) (word.Word, bool) {
	c.countRef(a, OpLR)
	return c.lockRead(a)
}

func (c *Cache) lockRead(a word.Addr) (word.Word, bool) {
	if c.dir.held(a) {
		panic(fmt.Sprintf("cache: PE %d re-locking %#x", c.pe, a))
	}
	if f := c.lookup(a); f >= 0 {
		c.stats.Hits[OpLR]++
		c.touch(f)
		if c.states[f].Exclusive() {
			// No other cache can hold the block, hence no other PE can
			// hold a lock on it: acquire with zero bus cycles.
			c.stats.LRHitExclusive++
			c.acquireLock(a)
			return c.loadWord(f, a), true
		}
		// Shared hit: LK + I to take ownership (locks stay
		// invalidate-based even under the write-update protocols — an
		// update broadcast cannot grant the exclusivity a lock needs).
		// The block upgrades to an exclusive state unless a remote lock
		// on another of its words forbids exclusivity. If the I killed a
		// remote modified copy (this clean S copy was supplied by a
		// dirty owner), this cache now holds the only copy of that data
		// and must take over write-back ownership — upgrading to EC here
		// would silently revert the block to stale memory on eviction.
		// Found by the internal/check differential fuzzer.
		ok, dirtyKilled := c.bus.Invalidate(c.pe, a, true)
		if !ok {
			c.beginBusyWait(a)
			return 0, false
		}
		locked := c.bus.RemoteLockInBlock(c.pe, a)
		if st := c.proto.LockUpgradeState(c.states[f], dirtyKilled, locked); st != c.states[f] {
			c.setState(f, st, probe.ReasonLock)
		}
		c.acquireLock(a)
		return c.loadWord(f, a), true
	}
	c.miss(a, OpLR)
	victim := c.victimFor(a)
	vdirty := c.states[victim].Dirty()
	res := c.bus.Fetch(c.pe, a, true, vdirty, true)
	if res.LockHit {
		c.beginBusyWait(a)
		return 0, false
	}
	c.evictHidden(victim)
	copy(c.frameData(victim), res.Data)
	// res.Shared here means a remote lock elsewhere in the block denied
	// exclusivity; the install states are exactly the invalidating-fetch
	// grant states.
	st := c.proto.FetchState(true, res.FromCache, res.SupplierDirty, res.Shared)
	c.install(victim, c.blockBase(a), st, probe.ReasonLock)
	c.touch(victim)
	c.acquireLock(a)
	return c.loadWord(victim, a), true
}

// acquireLock registers a lock on a and updates the bus lock filter.
func (c *Cache) acquireLock(a word.Addr) {
	c.dir.acquire(a)
	c.bus.LockAcquired(c.pe)
	if c.probe != nil {
		c.probe.Emit(probe.Event{
			Kind: probe.KindLockAcquire, Cycle: c.bus.ProbeClock(), PE: int16(c.pe), Addr: a,
		})
	}
}

func (c *Cache) beginBusyWait(a word.Addr) {
	c.stats.BusyWaits++
	c.blocked = true
	c.blockedOn = a
	if c.probe != nil {
		c.probe.Emit(probe.Event{
			Kind: probe.KindLockSpin, Cycle: c.bus.ProbeClock(), PE: int16(c.pe), Addr: a,
		})
	}
}

// UnlockWrite implements UW: store the word and release the lock. The UL
// broadcast is issued only when another PE is waiting (LWAIT), which is
// the bandwidth optimization Table 5's bottom row measures.
func (c *Cache) UnlockWrite(a word.Addr, w word.Word) {
	c.countRef(a, OpUW)
	c.writeInternal(a, w, OpUW)
	c.releaseLock(a)
}

// Unlock implements U: release without writing.
func (c *Cache) Unlock(a word.Addr) {
	c.countRef(a, OpU)
	c.releaseLock(a)
}

// Apply performs op at a with the address's area class already computed
// (callers must pass exactly what c's areaOf would return — trace
// replay passes trace.Ref.Area, classified once per reference by its
// producer). It is the one per-reference dispatch of every trace replay
// (trace.ChunkReplayer). It behaves identically
// to the corresponding Accessor method with the written value 0 and the
// read value discarded, which is precisely what trace replay does. ok is
// false only when an LR blocked on a remote lock.
func (c *Cache) Apply(op Op, a word.Addr, area mem.Area) (ok bool) {
	c.countRefIn(a, area, op)
	switch op {
	case OpR:
		c.readInternal(a, OpR)
	case OpW:
		c.writeInternal(a, 0, OpW)
	case OpLR:
		_, ok := c.lockRead(a)
		return ok
	case OpUW:
		c.writeInternal(a, 0, OpUW)
		c.releaseLock(a)
	case OpU:
		c.releaseLock(a)
	case OpDW:
		c.directWrite(a, 0, area)
	case OpER:
		c.exclusiveRead(a, area)
	case OpRP:
		c.readPurge(a, area)
	case OpRI:
		c.readInvalidate(a, area)
	default:
		panic(fmt.Sprintf("cache: Apply: unknown op %d", op))
	}
	return true
}

func (c *Cache) releaseLock(a word.Addr) {
	hadWaiter := c.dir.release(a)
	c.bus.LockReleased(c.pe)
	if c.probe != nil {
		var waiter uint64
		if hadWaiter {
			waiter = 1
		}
		c.probe.Emit(probe.Event{
			Kind: probe.KindLockRelease, Cycle: c.bus.ProbeClock(), PE: int16(c.pe),
			Addr: a, Arg: waiter,
		})
	}
	if hadWaiter {
		c.stats.UnlockWaiter++
		c.bus.Unlock(c.pe, a)
	} else {
		c.stats.UnlockNoWaiter++
	}
}

// HeldLock reports whether this PE currently holds a lock on a (used by
// runtime assertions and tests).
func (c *Cache) HeldLock(a word.Addr) bool { return c.dir.held(a) }

// LocksInUse counts currently held locks.
func (c *Cache) LocksInUse() int { return c.dir.inUse() }

// --- bus.Snooper ---

// SnoopFetch implements bus.Snooper. The protocol hooks decide whether
// this holder supplies the data (MOESI clean holders assert H but defer
// to memory), whether the supply is simultaneously copied back to shared
// memory (Illinois), what the holder's next state is, and whether the
// requester must take over write-back ownership (dirty).
func (c *Cache) SnoopFetch(a word.Addr, inval bool) (data []word.Word, held, supplies, dirty, retained bool) {
	f := c.lookup(a)
	if f < 0 {
		return nil, false, false, false, false
	}
	data = c.frameData(f)
	wasDirty := c.states[f].Dirty()
	supplies = wasDirty || c.proto.CleanSupplies()
	if inval {
		reportDirty, copyBack := c.proto.SnoopInvalTransfer(wasDirty)
		if copyBack {
			c.bus.MemoryWriteBack(c.bases[f], data)
		}
		c.drop(f, probe.ReasonSnoopInval)
		c.stats.Invalidations++
		return data, true, supplies, reportDirty, false
	}
	st, copyBack, reportDirty := c.proto.SnoopShareState(c.states[f])
	if copyBack {
		c.bus.MemoryWriteBack(c.bases[f], data)
	}
	if st != c.states[f] {
		c.setState(f, st, probe.ReasonSnoopShare)
	}
	return data, true, supplies, reportDirty, true
}

// SnoopUpdate implements bus.Snooper: a remote writer's UP broadcast
// carrying one word of a block this cache may hold. A holder stores the
// word in place (the lost-update hazard Faults.SkipSnoopUpdate models
// dropping) and normally retains its copy; under the adaptive protocol a
// copy that has received updLimit consecutive broadcasts with no local
// touch looks migratory and is self-invalidated instead, letting the
// writer settle into an exclusive state.
func (c *Cache) SnoopUpdate(a word.Addr, w word.Word) (held, retained bool) {
	f := c.lookup(a)
	if f < 0 {
		return false, false
	}
	c.stats.UpdatesReceived++
	if !Faults.SkipSnoopUpdate {
		c.storeWord(f, a, w)
	}
	if c.states[f].Dirty() {
		// The broadcasting writer becomes the block's dirty owner; this
		// previous owner's copy — now identical to the writer's —
		// downgrades to plain shared, keeping write-back ownership
		// unique (Dragon's Sm→Sc on a snooped update).
		c.setState(f, S, probe.ReasonSnoopShare)
	}
	if c.updLimit > 0 {
		c.updCounts[f]++
		if int(c.updCounts[f]) >= c.updLimit {
			c.stats.AdaptiveDrops++
			c.drop(f, probe.ReasonAdaptiveDrop)
			return true, false
		}
	}
	return true, true
}

// SnoopInvalidate implements bus.Snooper. It reports whether the
// discarded copy was modified: the requester's copy holds the same base
// content (it was supplied from this one), so the data itself survives,
// but the requester must take over write-back ownership or memory never
// sees it — see the dirtyKilled handling in writeInternal and LockRead.
func (c *Cache) SnoopInvalidate(a word.Addr) bool {
	if Faults.SkipSnoopInvalidate {
		return false
	}
	f := c.lookup(a)
	if f < 0 {
		return false
	}
	dirty := c.states[f].Dirty()
	c.drop(f, probe.ReasonSnoopInval)
	c.stats.Invalidations++
	return dirty
}

// Holds implements bus.Snooper.
func (c *Cache) Holds(a word.Addr) bool { return c.lookup(a) >= 0 }

// --- bus.LockUnit ---

// CheckLocked implements bus.LockUnit.
func (c *Cache) CheckLocked(a word.Addr) bool { return c.dir.snoop(a) }

// LocksInBlock implements bus.LockUnit.
func (c *Cache) LocksInBlock(base word.Addr, words int) bool {
	return c.dir.locksInBlock(base, words)
}

// ObserveUnlock implements bus.LockUnit.
func (c *Cache) ObserveUnlock(a word.Addr) {
	if c.blocked && c.blockedOn == a {
		c.blocked = false
	}
}

// --- maintenance ---

// Flush writes every dirty block back to memory and invalidates the whole
// cache. It is used around garbage collection and for end-of-run
// verification; it costs no simulated cycles.
func (c *Cache) Flush() {
	for f := range c.states {
		if c.states[f].Dirty() && !c.noData {
			c.bus.Memory().WriteBlock(c.bases[f], c.frameData(f))
		}
		c.drop(f, probe.ReasonFlush)
	}
}

// StateOf returns the state of the block containing a (INV when absent).
// Exposed for tests and the protocol-walkthrough example.
func (c *Cache) StateOf(a word.Addr) State {
	if f := c.lookup(a); f >= 0 {
		return c.states[f]
	}
	return INV
}

// PeekWord returns the cached copy of a, for tests; ok is false on miss.
// Stats-only caches report zero for every resident word.
func (c *Cache) PeekWord(a word.Addr) (word.Word, bool) {
	if f := c.lookup(a); f >= 0 {
		return c.loadWord(f, a), true
	}
	return 0, false
}
