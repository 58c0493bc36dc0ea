package probe

import (
	"strings"
	"testing"
)

func TestIntervalsPanicsOnZeroWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewIntervals(0) did not panic")
		}
	}()
	NewIntervals(0)
}

func TestIntervalsRefBuckets(t *testing.T) {
	iv := NewIntervals(10)
	iv.Emit(Event{Kind: KindRef, Cycle: 0, A: 0})
	iv.Emit(Event{Kind: KindRef, Cycle: 9, A: OpU}) // counted as ref, not lookup
	iv.Emit(Event{Kind: KindRef, Cycle: 10, A: 1})
	iv.Emit(Event{Kind: KindMiss, Cycle: 10, A: 1})
	iv.Emit(Event{Kind: KindCacheState, Cycle: 25, Arg: ReasonSnoopInval})
	iv.Emit(Event{Kind: KindCacheState, Cycle: 25, Arg: ReasonEvict}) // not an inval
	iv.Emit(Event{Kind: KindGoalSteal, Cycle: 25})
	bk := iv.Buckets()
	if len(bk) != 3 {
		t.Fatalf("%d buckets, want 3", len(bk))
	}
	if bk[0].Refs != 2 || bk[0].Lookups != 1 {
		t.Errorf("bucket 0: refs %d lookups %d, want 2/1", bk[0].Refs, bk[0].Lookups)
	}
	if bk[1].Refs != 1 || bk[1].Misses != 1 {
		t.Errorf("bucket 1: refs %d misses %d, want 1/1", bk[1].Refs, bk[1].Misses)
	}
	if bk[2].Invals != 1 || bk[2].Steals != 1 {
		t.Errorf("bucket 2: invals %d steals %d, want 1/1", bk[2].Invals, bk[2].Steals)
	}
}

func TestIntervalsSpreadAcrossBoundaries(t *testing.T) {
	iv := NewIntervals(10)
	// A 25-cycle bus transaction ending at cycle 30 spans [5, 30):
	// 5 cycles in window 0, 10 in window 1, 10 in window 2.
	iv.Emit(Event{Kind: KindBusEnd, Cycle: 30, N: 25})
	bk := iv.Buckets()
	if len(bk) != 3 {
		t.Fatalf("%d buckets, want 3", len(bk))
	}
	for i, want := range []uint64{5, 10, 10} {
		if bk[i].BusCycles != want {
			t.Errorf("bucket %d: BusCycles %d, want %d", i, bk[i].BusCycles, want)
		}
	}
}

func TestIntervalsLockWait(t *testing.T) {
	iv := NewIntervals(10)
	iv.Emit(Event{Kind: KindLockSpin, Cycle: 5, PE: 2})
	// A second denial before the acquire must not reset the wait start.
	iv.Emit(Event{Kind: KindLockConflict, Cycle: 12, PE: 2})
	iv.Emit(Event{Kind: KindLockAcquire, Cycle: 25, PE: 2})
	// Another PE acquiring without a recorded wait adds nothing.
	iv.Emit(Event{Kind: KindLockAcquire, Cycle: 25, PE: 0})
	bk := iv.Buckets()
	if len(bk) != 3 {
		t.Fatalf("%d buckets, want 3", len(bk))
	}
	for i, want := range []uint64{5, 10, 5} {
		if bk[i].LockWait != want {
			t.Errorf("bucket %d: LockWait %d, want %d", i, bk[i].LockWait, want)
		}
	}
	// The wait was consumed: a fresh acquire adds nothing more.
	iv.Emit(Event{Kind: KindLockAcquire, Cycle: 29, PE: 2})
	if iv.Buckets()[2].LockWait != 5 {
		t.Error("acquire without a pending wait changed LockWait")
	}
}

// TestIntervalsConflictAloneIsNotAWait pins the fix for an accounting
// bug: the bus emits KindLockConflict for every transaction that draws
// LH, including plain operations that the bus retries at once and that
// never acquire a lock. Treating the conflict as the
// start of a wait left the window open until the PE's next unrelated
// lock acquisition, charging normal execution as lock-wait time. Only
// the cache-side KindLockSpin — the actual start of a busy wait —
// may open the window.
func TestIntervalsConflictAloneIsNotAWait(t *testing.T) {
	iv := NewIntervals(10)
	// Plain R/W draws LH at cycle 2; the retry proceeds with no
	// acquisition. Much later the same PE takes an uncontended lock.
	iv.Emit(Event{Kind: KindLockConflict, Cycle: 2, PE: 1})
	iv.Emit(Event{Kind: KindLockAcquire, Cycle: 95, PE: 1})
	for i, b := range iv.Buckets() {
		if b.LockWait != 0 {
			t.Errorf("bucket %d: LockWait %d from a conflict-only window, want 0", i, b.LockWait)
		}
	}
	// A real busy wait still accounts normally afterwards.
	iv.Emit(Event{Kind: KindLockSpin, Cycle: 100, PE: 1})
	iv.Emit(Event{Kind: KindLockAcquire, Cycle: 104, PE: 1})
	if got := iv.Buckets()[10].LockWait; got != 4 {
		t.Errorf("LockWait after real spin = %d, want 4", got)
	}
}

// TestIntervalsWindowLongerThanRun: with a width wider than the whole
// run, everything lands in one bucket and the renderers emit exactly
// one row.
func TestIntervalsWindowLongerThanRun(t *testing.T) {
	iv := NewIntervals(1_000_000)
	iv.Emit(Event{Kind: KindRef, Cycle: 0})
	iv.Emit(Event{Kind: KindMiss, Cycle: 17})
	iv.Emit(Event{Kind: KindBusEnd, Cycle: 40, N: 12})
	iv.Emit(Event{Kind: KindRef, Cycle: 999})
	bk := iv.Buckets()
	if len(bk) != 1 {
		t.Fatalf("%d buckets, want 1", len(bk))
	}
	if bk[0].Refs != 2 || bk[0].Misses != 1 || bk[0].BusCycles != 12 {
		t.Errorf("bucket = %+v, want refs 2, misses 1, bus 12", bk[0])
	}
	var sb strings.Builder
	if err := iv.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 2 {
		t.Errorf("CSV has %d lines, want header + 1 row", lines)
	}
	if !strings.Contains(iv.Table().String(), "0-1000000") {
		t.Errorf("Table missing the single window:\n%s", iv.Table())
	}
}

// TestIntervalsCSVTrailingNewline: the CSV ends with exactly one
// newline — no missing terminator, no blank trailing record.
func TestIntervalsCSVTrailingNewline(t *testing.T) {
	iv := NewIntervals(10)
	iv.Emit(Event{Kind: KindRef, Cycle: 3})
	iv.Emit(Event{Kind: KindRef, Cycle: 25}) // three windows
	var sb strings.Builder
	if err := iv.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("CSV does not end with a newline: %q", out)
	}
	if strings.HasSuffix(out, "\n\n") {
		t.Fatalf("CSV ends with a blank line: %q", out)
	}
	if rows := strings.Count(out, "\n"); rows != 4 {
		t.Errorf("CSV has %d lines, want header + 3 rows", rows)
	}
}

func TestIntervalsCSV(t *testing.T) {
	iv := NewIntervals(10)
	iv.Emit(Event{Kind: KindRef, Cycle: 3})
	iv.Emit(Event{Kind: KindMiss, Cycle: 3})
	iv.Emit(Event{Kind: KindBusEnd, Cycle: 8, N: 4})
	var sb strings.Builder
	if err := iv.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "start,end,refs,misses,bus_cycles,lock_wait,invals,steals\n" +
		"0,10,1,1,4,0,0,0\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
	if got := iv.Table().String(); !strings.Contains(got, "0-10") {
		t.Errorf("Table missing the 0-10 window:\n%s", got)
	}
}
