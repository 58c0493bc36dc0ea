package probe

import (
	"fmt"
	"io"

	"pimcache/internal/stats"
)

// Interval aggregates activity inside one probe-clock window.
type Interval struct {
	// BusCycles is how many of the window's cycles the bus was busy;
	// transactions spanning a boundary are split proportionally.
	BusCycles uint64
	// Refs counts memory references issued; Lookups excludes U
	// (unlock), which touches only the lock directory.
	Refs, Lookups uint64
	// Misses counts cache misses (block-directory lookups that failed).
	Misses uint64
	// LockWait is cycles PEs spent busy-waiting between a lock denial
	// (LH) and the eventual acquisition, split across windows.
	LockWait uint64
	// Invals counts cache blocks invalidated by remote activity.
	Invals uint64
	// Steals counts goals received from other PEs (live runs only).
	Steals uint64
}

// Intervals buckets probe events into fixed-width windows of the
// simulated clock, yielding bus utilization, miss ratio and lock-wait
// time per window — the temporal detail the end-of-run aggregates
// collapse. Render with Table or WriteCSV after the run.
type Intervals struct {
	width   uint64
	buckets []Interval
	// waitSince tracks, per PE, the cycle its current lock wait began
	// (set on the first denial, cleared on acquisition).
	waitSince map[int16]uint64
}

// NewIntervals collects metrics in windows of width probe-clock
// cycles. Width must be positive.
func NewIntervals(width uint64) *Intervals {
	if width == 0 {
		panic("probe: interval width must be positive")
	}
	return &Intervals{width: width, waitSince: make(map[int16]uint64)}
}

// Buckets returns the collected windows; index i covers cycles
// [i*width, (i+1)*width) for the window width given to NewIntervals.
func (iv *Intervals) Buckets() []Interval { return iv.buckets }

func (iv *Intervals) bucket(cycle uint64) *Interval {
	i := int(cycle / iv.width)
	for len(iv.buckets) <= i {
		iv.buckets = append(iv.buckets, Interval{})
	}
	return &iv.buckets[i]
}

// spread adds cycles covering [from, to) to per-window counters
// selected by pick, splitting across boundaries.
func (iv *Intervals) spread(from, to uint64, pick func(*Interval) *uint64) {
	for from < to {
		end := (from/iv.width + 1) * iv.width
		if end > to {
			end = to
		}
		*pick(iv.bucket(from)) += end - from
		from = end
	}
}

// Emit implements Sink.
func (iv *Intervals) Emit(e Event) {
	switch e.Kind {
	case KindRef:
		b := iv.bucket(e.Cycle)
		b.Refs++
		if e.A != OpU {
			b.Lookups++
		}
	case KindMiss:
		iv.bucket(e.Cycle).Misses++
	case KindBusEnd:
		iv.spread(e.Cycle-uint64(e.N), e.Cycle, func(b *Interval) *uint64 { return &b.BusCycles })
	case KindLockSpin:
		// Only the cache-side spin event starts a wait window. The bus's
		// KindLockConflict also fires for plain operations that draw LH,
		// but the bus retries those at once, without ever acquiring a
		// lock — counting them opened a window that stayed open until
		// the PE's next unrelated KindLockAcquire, charging arbitrary
		// spans of normal execution as lock-wait time.
		if _, pending := iv.waitSince[e.PE]; !pending {
			iv.waitSince[e.PE] = e.Cycle
		}
	case KindLockAcquire:
		if since, pending := iv.waitSince[e.PE]; pending {
			iv.spread(since, e.Cycle, func(b *Interval) *uint64 { return &b.LockWait })
			delete(iv.waitSince, e.PE)
		}
	case KindCacheState:
		if e.Arg == ReasonSnoopInval {
			iv.bucket(e.Cycle).Invals++
		}
	case KindGoalSteal:
		iv.bucket(e.Cycle).Steals++
	}
}

// Table renders the windows as an aligned text table.
func (iv *Intervals) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("interval metrics (%d cycles per interval)", iv.width),
		Columns: []string{"cycles", "refs", "miss%", "bus-util%", "lock-wait", "invals", "steals"},
	}
	for i, b := range iv.buckets {
		missPct := 0.0
		if b.Lookups > 0 {
			missPct = 100 * float64(b.Misses) / float64(b.Lookups)
		}
		t.AddRow(fmt.Sprintf("%d-%d", uint64(i)*iv.width, uint64(i+1)*iv.width),
			fmt.Sprintf("%d", b.Refs),
			fmt.Sprintf("%.2f", missPct),
			fmt.Sprintf("%.2f", 100*float64(b.BusCycles)/float64(iv.width)),
			fmt.Sprintf("%d", b.LockWait),
			fmt.Sprintf("%d", b.Invals),
			fmt.Sprintf("%d", b.Steals),
		)
	}
	return t
}

// WriteCSV writes the windows as CSV with a header row, for external
// plotting.
func (iv *Intervals) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "start,end,refs,misses,bus_cycles,lock_wait,invals,steals\n"); err != nil {
		return err
	}
	for i, b := range iv.buckets {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d\n",
			uint64(i)*iv.width, uint64(i+1)*iv.width,
			b.Refs, b.Misses, b.BusCycles, b.LockWait, b.Invals, b.Steals)
		if err != nil {
			return err
		}
	}
	return nil
}
