package machine

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// CheckInvariants checks the cluster-wide invariants that need no
// reference model, for the block of each address in addrs (addresses
// inside the machine's memory):
//
//   - an exclusive (EC/EM) copy is the only copy;
//   - at most one copy is dirty;
//   - all valid copies hold identical data (vacuous on a stats-only
//     machine, whose copies carry no values);
//   - the bus presence filter's holder mask equals the holder scan;
//   - each word of the block has at most one lock holder;
//   - no cache other than a locked word's holder holds its block
//     exclusively (what makes the zero-bus LR hit-exclusive path safe).
//
// It also checks that the bus lock filter's per-PE counts, and their
// total, equal the lock directories. It returns the first violation, or
// nil, and allocates nothing when every invariant holds.
//
// Precondition: the software contracts hold — DW only on a block no
// other cache holds, ER/RP purges only of dead data. Live runs and the
// internal/check schedules meet them. A trace replayed at a block size
// other than the one it was recorded at need not: a DW can then install
// an exclusive copy beside a remote one.
func (m *Machine) CheckInvariants(addrs []word.Addr) error {
	mask := word.Addr(m.cfg.Cache.BlockWords - 1)
	for _, a := range addrs {
		if err := m.checkBlock(a &^ mask); err != nil {
			return err
		}
	}
	total := 0
	for pe, c := range m.caches {
		n := c.LocksInUse()
		if got := m.bus.LockCount(pe); got != n {
			return fmt.Errorf("machine: PE%d: bus lock filter counts %d, directory holds %d", pe, got, n)
		}
		total += n
	}
	if got := m.bus.TotalLockCount(); got != total {
		return fmt.Errorf("machine: bus lock filter total %d, directories hold %d", got, total)
	}
	return nil
}

// checkBlock checks CheckInvariants' per-block invariants for the block
// based at base.
func (m *Machine) checkBlock(base word.Addr) error {
	bw := m.cfg.Cache.BlockWords
	holders, dirty, first, excl := 0, 0, -1, -1
	for pe, c := range m.caches {
		st := c.StateOf(base)
		if !st.Valid() {
			continue
		}
		holders++
		if st.Exclusive() {
			excl = pe
		}
		if st.Dirty() {
			dirty++
		}
		if first < 0 {
			first = pe
			continue
		}
		for i := 0; i < bw; i++ {
			a := base + word.Addr(i)
			want, _ := m.caches[first].PeekWord(a)
			if got, _ := c.PeekWord(a); got != want {
				return fmt.Errorf("machine: block %#x word %d: PE%d holds %v, PE%d holds %v",
					base, i, first, want, pe, got)
			}
		}
	}
	if excl >= 0 && holders > 1 {
		return fmt.Errorf("machine: block %#x: PE%d holds it %s among %d holders",
			base, excl, m.caches[excl].StateOf(base), holders)
	}
	if dirty > 1 {
		return fmt.Errorf("machine: block %#x: %d dirty copies", base, dirty)
	}
	if got, want := m.bus.HolderMask(base), m.bus.ScanHolders(base); got != want {
		return fmt.Errorf("machine: block %#x: presence filter mask %#x, true holder set %#x", base, got, want)
	}
	for pe, c := range m.caches {
		if !c.LocksInBlock(base, bw) {
			continue
		}
		for i := 0; i < bw; i++ {
			a := base + word.Addr(i)
			if !c.HeldLock(a) {
				continue
			}
			if excl >= 0 && excl != pe {
				return fmt.Errorf("machine: lock %#x held by PE%d but PE%d holds its block %s",
					a, pe, excl, m.caches[excl].StateOf(base))
			}
			for q := pe + 1; q < len(m.caches); q++ {
				if m.caches[q].HeldLock(a) {
					return fmt.Errorf("machine: lock %#x held by both PE%d and PE%d", a, pe, q)
				}
			}
		}
	}
	return nil
}
