package cache

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// LockEntrySnapshot is one serialized lock-directory entry. Empty entries
// are kept in place so that Restore reproduces the directory's exact slot
// layout (acquire fills the first empty slot, so slot positions are
// observable through later behaviour).
type LockEntrySnapshot struct {
	Addr  word.Addr
	State LockState
}

// Snapshot is a self-contained copy of a stats-only cache's mutable
// state: the directory (each frame's state and block base, unpacked from
// the tag plane; an invalid frame's base is 0), the LRU plane and clock,
// the lock directory, the busy-wait latch and the statistics. It holds no
// data plane — no statistic depends on a value — yet contains everything
// needed to make Restore followed by replaying refs [k, n) bit-identical
// to an uninterrupted replay of refs [0, n), including probe event
// streams, because the probe clock lives on the bus and is captured by
// bus.Snapshot.
//
// All fields are exported and of serializable types so the machine-level
// checkpoint can gob-encode snapshots directly.
type Snapshot struct {
	States   []State
	Bases    []word.Addr
	LRU      []uint64
	LRUClock uint64
	// UpdCounts is the adaptive protocol's per-frame received-update
	// counter plane; nil for every other protocol, so their encoded
	// checkpoints are unchanged.
	UpdCounts []uint8

	Locks     []LockEntrySnapshot
	Blocked   bool
	BlockedOn word.Addr

	Stats Stats
}

// Snapshot captures the cache's mutable state. The configuration is not
// included: a snapshot may only be restored into a cache with the same
// Config (the machine-level checkpoint records and checks it).
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		States:    make([]State, len(c.tags)),
		Bases:     make([]word.Addr, len(c.tags)),
		LRU:       append([]uint64(nil), c.lru...),
		LRUClock:  c.lruClock,
		UpdCounts: append([]uint8(nil), c.updCounts...),
		Locks:     make([]LockEntrySnapshot, len(c.dir.entries)),
		Blocked:   c.blocked,
		BlockedOn: c.blockedOn,
		Stats:     c.stats,
	}
	for f := range c.tags {
		s.States[f], s.Bases[f] = c.state(f), c.base(f)
	}
	for i, e := range c.dir.entries {
		s.Locks[i] = LockEntrySnapshot{Addr: e.addr, State: e.state}
	}
	return s
}

// Restore overwrites the cache's mutable state from a snapshot taken on a
// cache with the same configuration. A snapshot holds no data plane, so
// a data-carrying cache keeps its own (machine.Restore therefore
// restores only stats-only machines). A snapshot that fails
// checkSnapshot is refused before anything is copied. The bus presence
// and lock filters are derived state, not part of any snapshot: Restore
// takes the frames and locks the cache held out of them and puts the
// restored ones in, so they are exact after any restore. It emits no
// probe event and changes no bus statistic.
func (c *Cache) Restore(s *Snapshot) error {
	if err := c.checkSnapshot(s); err != nil {
		return err
	}
	c.announce(false)
	for f, st := range s.States {
		if st == INV {
			c.tags[f] = invalidTag
		} else {
			c.tags[f] = frameTag(s.Bases[f], st)
		}
	}
	copy(c.lru, s.LRU)
	c.lruClock = s.LRUClock
	copy(c.updCounts, s.UpdCounts)
	for i, e := range s.Locks {
		c.dir.entries[i] = lockEntry{addr: e.Addr, state: e.State}
	}
	c.blocked = s.Blocked
	c.blockedOn = s.BlockedOn
	c.stats = s.Stats
	c.announce(true)
	return nil
}

// announce reports every valid frame and held lock of the cache to the
// bus filters: as installs and acquisitions when join is true, as drops
// and releases when it is false.
func (c *Cache) announce(join bool) {
	for f := range c.tags {
		switch {
		case c.state(f) == INV:
		case join:
			c.bus.BlockInstalled(c.pe, c.base(f))
		default:
			c.bus.BlockDropped(c.pe, c.base(f))
		}
	}
	for _, e := range c.dir.entries {
		switch {
		case e.state == EMP:
		case join:
			c.bus.LockAcquired(c.pe)
		default:
			c.bus.LockReleased(c.pe)
		}
	}
}

// checkSnapshot validates s against c's geometry and the directory
// invariants the hit path relies on: every plane has one entry per
// frame, every state is known, and every valid frame holds a
// block-aligned base in memory and of its own set that no other way of
// the set holds (lookup assumes a block occupies at most one frame).
// Every lock entry has a known state, and no address is locked twice
// (find would see only the first entry, so the second could never be
// released).
func (c *Cache) checkSnapshot(s *Snapshot) error {
	frames := len(c.tags)
	if len(s.States) != frames || len(s.Bases) != frames || len(s.LRU) != frames {
		return fmt.Errorf("cache: snapshot geometry %d states/%d bases/%d LRU clocks does not match cache %d frames",
			len(s.States), len(s.Bases), len(s.LRU), frames)
	}
	if len(s.Locks) != len(c.dir.entries) {
		return fmt.Errorf("cache: snapshot has %d lock entries, cache has %d",
			len(s.Locks), len(c.dir.entries))
	}
	if c.updCounts != nil && len(s.UpdCounts) != len(c.updCounts) {
		return fmt.Errorf("cache: snapshot has %d update counters, cache has %d",
			len(s.UpdCounts), len(c.updCounts))
	}
	for f, st := range s.States {
		if st >= numStates {
			return fmt.Errorf("cache: snapshot frame %d: unknown state %d", f, st)
		}
		if st == INV {
			continue
		}
		base, set := s.Bases[f], f/c.ways
		if base&c.offMask != 0 {
			return fmt.Errorf("cache: snapshot frame %d: base %#x is not block-aligned", f, base)
		}
		if base >= c.bounds.End {
			return fmt.Errorf("cache: snapshot frame %d: block %#x lies beyond memory (%d words)", f, base, c.bounds.End)
		}
		if got := int((base >> c.blockShift) & c.setMask); got != set {
			return fmt.Errorf("cache: snapshot frame %d (set %d): block %#x belongs to set %d", f, set, base, got)
		}
		for g := set * c.ways; g < f; g++ {
			if s.States[g] != INV && s.Bases[g] == base {
				return fmt.Errorf("cache: snapshot frames %d and %d both hold block %#x", g, f, base)
			}
		}
	}
	for i, e := range s.Locks {
		if e.State > LWAIT {
			return fmt.Errorf("cache: snapshot lock entry %d: unknown state %d", i, e.State)
		}
		if e.State == EMP {
			continue
		}
		for j, p := range s.Locks[:i] {
			if p.State != EMP && p.Addr == e.Addr {
				return fmt.Errorf("cache: snapshot lock entries %d and %d both lock %#x", j, i, e.Addr)
			}
		}
	}
	return nil
}
