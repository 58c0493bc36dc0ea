package cache

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// lockEntry is one word-granular lock held by this PE.
type lockEntry struct {
	addr  word.Addr
	state LockState
}

// lockDir is the PE's lock directory (Section 3.1): a handful of entries,
// separate from the cache directory, that register the word addresses
// this PE has locked with LR. The directory snoops the bus: a remote
// command touching a locked word gets the LH response and the entry moves
// LCK -> LWAIT so that the eventual unlock is broadcast.
type lockDir struct {
	entries []lockEntry
}

func newLockDir(n int) *lockDir {
	return &lockDir{entries: make([]lockEntry, n)}
}

// find returns the index of the entry for addr, or -1.
func (d *lockDir) find(addr word.Addr) int {
	for i := range d.entries {
		if d.entries[i].state != EMP && d.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// held reports whether this PE holds a lock on addr.
func (d *lockDir) held(addr word.Addr) bool { return d.find(addr) >= 0 }

// lockable reports why this PE cannot lock addr now: it already holds
// it (KL1 locks are not reentrant) or every entry is in use (the runtime
// holds more simultaneous locks than the hardware provides; the paper
// argues one or two entries suffice). nil means acquire will succeed.
func (d *lockDir) lockable(addr word.Addr) error {
	free := false
	for i := range d.entries {
		switch e := &d.entries[i]; {
		case e.state == EMP:
			free = true
		case e.addr == addr:
			return fmt.Errorf("cache: re-locking %#x", addr)
		}
	}
	if !free {
		return fmt.Errorf("cache: lock directory overflow locking %#x", addr)
	}
	return nil
}

// acquire registers a lock on addr in the LCK state. It panics when
// lockable refuses addr: the cache checks first, so reaching the panic
// is a bug in the cache itself.
func (d *lockDir) acquire(addr word.Addr) {
	if err := d.lockable(addr); err != nil {
		panic(err)
	}
	for i := range d.entries {
		if d.entries[i].state == EMP {
			d.entries[i] = lockEntry{addr: addr, state: LCK}
			return
		}
	}
}

// errUnheld is the error for an unlock of an address this PE does not
// hold: an unmatched U/UW.
func errUnheld(addr word.Addr) error {
	return fmt.Errorf("cache: unlock of unheld address %#x", addr)
}

// release frees the entry for addr and reports whether any PE was
// waiting (LWAIT), in which case the caller must broadcast UL. It panics
// with errUnheld on unlocking an address this PE does not hold — on a
// live run an unmatched U/UW is a runtime bug.
func (d *lockDir) release(addr word.Addr) (hadWaiter bool) {
	i := d.find(addr)
	if i < 0 {
		panic(errUnheld(addr))
	}
	hadWaiter = d.entries[i].state == LWAIT
	d.entries[i] = lockEntry{}
	return hadWaiter
}

// snoop is the bus-side check: if addr is locked here, record the waiter
// and report a lock hit.
func (d *lockDir) snoop(addr word.Addr) bool {
	i := d.find(addr)
	if i < 0 {
		return false
	}
	d.entries[i].state = LWAIT
	return true
}

// locksInBlock reports whether any entry falls within [base, base+words).
func (d *lockDir) locksInBlock(base word.Addr, words int) bool {
	for i := range d.entries {
		e := &d.entries[i]
		if e.state != EMP && e.addr >= base && e.addr < base+word.Addr(words) {
			return true
		}
	}
	return false
}

// inUse counts active entries.
func (d *lockDir) inUse() int {
	n := 0
	for i := range d.entries {
		if d.entries[i].state != EMP {
			n++
		}
	}
	return n
}
