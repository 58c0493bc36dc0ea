package bus

// Snapshot is a copy of the bus's own mutable state: its statistics and
// the probe clock's per-reference tick component. Together with the
// per-cache snapshots it makes a restored machine's future behaviour —
// including probe cycle stamps — bit-identical to the uninterrupted run.
// The presence and lock filters are not in it: they are derived from the
// caches, and each cache's Restore rebuilds its share of them. Attached
// snoopers, lock units and the probe sink are wiring, not state, and are
// left untouched by Restore.
type Snapshot struct {
	Stats Stats
	Ticks uint64
}

// Snapshot captures the bus's mutable state.
func (b *Bus) Snapshot() *Snapshot {
	return &Snapshot{Stats: b.stats, Ticks: b.ticks}
}

// Restore overwrites the bus's statistics and probe clock from s.
func (b *Bus) Restore(s *Snapshot) {
	b.stats = s.Stats
	b.ticks = s.Ticks
}
