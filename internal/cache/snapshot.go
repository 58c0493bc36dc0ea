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

// Snapshot is a complete, self-contained copy of a cache's mutable state:
// the four SoA planes, the LRU clock, the lock directory, the busy-wait
// latch and the statistics. It contains everything needed to make Restore
// followed by replaying refs [k, n) bit-identical to an uninterrupted
// replay of refs [0, n) — including probe event streams, because the
// probe clock lives on the bus and is captured by bus.Snapshot.
//
// All fields are exported and of serializable types so the machine-level
// checkpoint can gob-encode snapshots directly.
type Snapshot struct {
	States   []State
	Bases    []word.Addr
	LRU      []uint64
	Data     []word.Word
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
		States:    append([]State(nil), c.states...),
		Bases:     append([]word.Addr(nil), c.bases...),
		LRU:       append([]uint64(nil), c.lru...),
		Data:      append([]word.Word(nil), c.data...),
		LRUClock:  c.lruClock,
		UpdCounts: append([]uint8(nil), c.updCounts...),
		Locks:     make([]LockEntrySnapshot, len(c.dir.entries)),
		Blocked:   c.blocked,
		BlockedOn: c.blockedOn,
		Stats:     c.stats,
	}
	for i, e := range c.dir.entries {
		s.Locks[i] = LockEntrySnapshot{Addr: e.addr, State: e.state}
	}
	return s
}

// Restore overwrites the cache's mutable state from a snapshot taken on a
// cache with the same configuration. A stats-only cache drops the
// snapshot's data plane, if it has one. A snapshot that fails
// checkSnapshot is refused before anything is copied. The bus presence
// filter is NOT updated here — the filter is bus state, and a
// machine-level restore reinstates it through bus.(*Bus).Restore;
// restoring a lone cache outside a machine checkpoint would
// desynchronize the filter.
func (c *Cache) Restore(s *Snapshot) error {
	if err := c.checkSnapshot(s); err != nil {
		return err
	}
	copy(c.states, s.States)
	copy(c.bases, s.Bases)
	for f, st := range c.states {
		if st == INV {
			c.tags[f] = invalidTag
		} else {
			c.tags[f] = frameTag(c.bases[f], st)
		}
	}
	copy(c.lru, s.LRU)
	copy(c.data, s.Data)
	c.lruClock = s.LRUClock
	copy(c.updCounts, s.UpdCounts)
	for i, e := range s.Locks {
		c.dir.entries[i] = lockEntry{addr: e.Addr, state: e.State}
	}
	c.blocked = s.Blocked
	c.blockedOn = s.BlockedOn
	c.stats = s.Stats
	return nil
}

// checkSnapshot validates s against c's geometry and the directory
// invariants the hit path relies on: every plane has one entry per
// frame, every state is known, and every valid frame holds a
// block-aligned base of its own set that no other way of the set holds
// (lookup assumes a block occupies at most one frame).
func (c *Cache) checkSnapshot(s *Snapshot) error {
	frames := len(c.states)
	if len(s.States) != frames || len(s.Bases) != frames || len(s.LRU) != frames ||
		!c.noData && len(s.Data) != len(c.data) {
		return fmt.Errorf("cache: snapshot geometry %d states/%d bases/%d LRU clocks/%d words does not match cache %d frames/%d words",
			len(s.States), len(s.Bases), len(s.LRU), len(s.Data), frames, len(c.data))
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
		if got := int((base >> c.blockShift) & c.setMask); got != set {
			return fmt.Errorf("cache: snapshot frame %d (set %d): block %#x belongs to set %d", f, set, base, got)
		}
		for g := set * c.ways; g < f; g++ {
			if s.States[g] != INV && s.Bases[g] == base {
				return fmt.Errorf("cache: snapshot frames %d and %d both hold block %#x", g, f, base)
			}
		}
	}
	return nil
}
