package mem

import (
	"testing"

	"pimcache/internal/kl1/word"
)

func smallLayout() Layout {
	return Layout{InstWords: 64, HeapWords: 256, GoalWords: 128, SuspWords: 64, CommWords: 32}
}

func TestLayoutBounds(t *testing.T) {
	l := smallLayout()
	b := l.Bounds()
	if b.InstBase != reservedWords {
		t.Fatalf("InstBase = %d", b.InstBase)
	}
	if b.HeapBase != b.InstBase+64 || b.GoalBase != b.HeapBase+256 ||
		b.SuspBase != b.GoalBase+128 || b.CommBase != b.SuspBase+64 ||
		b.End != b.CommBase+32 {
		t.Fatalf("unexpected bounds %+v", b)
	}
	if l.TotalWords() != int(b.End) {
		t.Errorf("TotalWords = %d, want %d", l.TotalWords(), b.End)
	}
}

func TestAreaOf(t *testing.T) {
	b := smallLayout().Bounds()
	cases := []struct {
		a    word.Addr
		want Area
	}{
		{0, AreaNone},
		{reservedWords - 1, AreaNone},
		{b.InstBase, AreaInst},
		{b.HeapBase - 1, AreaInst},
		{b.HeapBase, AreaHeap},
		{b.GoalBase - 1, AreaHeap},
		{b.GoalBase, AreaGoal},
		{b.SuspBase, AreaSusp},
		{b.CommBase, AreaComm},
		{b.End - 1, AreaComm},
		{b.End, AreaNone},
		{b.End + 1000, AreaNone},
	}
	for _, tc := range cases {
		if got := b.AreaOf(tc.a); got != tc.want {
			t.Errorf("AreaOf(%d) = %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestAreaOfExhaustiveProperty(t *testing.T) {
	// Every address below End maps to exactly the area whose range
	// contains it, and area boundaries are contiguous.
	b := smallLayout().Bounds()
	prev := AreaNone
	transitions := 0
	for a := word.Addr(0); a < b.End; a++ {
		ar := b.AreaOf(a)
		if ar != prev {
			transitions++
			prev = ar
		}
	}
	if transitions != 5 { // none->inst->heap->goal->susp->comm
		t.Errorf("expected 5 area transitions, got %d", transitions)
	}
}

func TestAreaString(t *testing.T) {
	if AreaHeap.String() != "heap" || AreaComm.String() != "comm" {
		t.Error("unexpected area names")
	}
	if Area(99).String() != "area(99)" {
		t.Error("out-of-range area name")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := New(smallLayout())
	a := m.Bounds().HeapBase
	m.Write(a, word.Int(7))
	if got := m.Read(a); got.IntVal() != 7 {
		t.Errorf("read back %v", got)
	}
}

func TestMemoryBlockOps(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().HeapBase
	src := []word.Word{word.Int(1), word.Int(2), word.Int(3), word.Int(4)}
	m.WriteBlock(base, src)
	dst := make([]word.Word, 4)
	m.ReadBlock(base, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("block word %d = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestBumpAlloc(t *testing.T) {
	b := NewBump(100, 110)
	a1, ok := b.Alloc(4)
	if !ok || a1 != 100 {
		t.Fatalf("first alloc = %d,%v", a1, ok)
	}
	a2, ok := b.Alloc(4)
	if !ok || a2 != 104 {
		t.Fatalf("second alloc = %d,%v", a2, ok)
	}
	if b.Used() != 8 || b.Free() != 2 {
		t.Errorf("Used=%d Free=%d", b.Used(), b.Free())
	}
	if _, ok := b.Alloc(4); ok {
		t.Error("allocation past limit succeeded")
	}
	// Exact fit must succeed.
	if a3, ok := b.Alloc(2); !ok || a3 != 108 {
		t.Errorf("exact-fit alloc = %d,%v", a3, ok)
	}
}

func TestFreeListAllocFree(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	fl := NewFreeList(m, base, base+32, 8)
	if fl.Capacity() != 4 || fl.Free() != 4 {
		t.Fatalf("capacity=%d free=%d", fl.Capacity(), fl.Free())
	}
	acc := DirectAccessor{m}
	a1, ok := fl.Alloc(acc)
	if !ok || a1 != base {
		t.Fatalf("first alloc = %#x,%v; want %#x", a1, ok, base)
	}
	a2, _ := fl.Alloc(acc)
	if a2 != base+8 {
		t.Fatalf("second alloc = %#x, want %#x", a2, base+8)
	}
	fl.Push(acc, a1)
	if fl.Free() != 3 {
		t.Errorf("free = %d, want 3", fl.Free())
	}
	a3, _ := fl.Alloc(acc)
	if a3 != a1 {
		t.Errorf("LIFO violated: got %#x, want %#x", a3, a1)
	}
}

func TestFreeListExhaustion(t *testing.T) {
	m := New(smallLayout())
	base := m.Bounds().SuspBase
	fl := NewFreeList(m, base, base+8, 4)
	acc := DirectAccessor{m}
	if _, ok := fl.Alloc(acc); !ok {
		t.Fatal("alloc 1 failed")
	}
	if _, ok := fl.Alloc(acc); !ok {
		t.Fatal("alloc 2 failed")
	}
	if _, ok := fl.Alloc(acc); ok {
		t.Error("alloc from empty list succeeded")
	}
}

func TestFreeListCrossListFree(t *testing.T) {
	// A record allocated from one PE's list may be freed to another's,
	// as happens when goals migrate during load balancing.
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	acc := DirectAccessor{m}
	flA := NewFreeList(m, base, base+16, 8)
	flB := NewFreeList(m, base+16, base+32, 8)
	a, _ := flA.Alloc(acc)
	flB.Push(acc, a)
	if flB.Free() != 3 {
		t.Fatalf("flB.Free = %d, want 3", flB.Free())
	}
	got, _ := flB.Alloc(acc)
	if got != a {
		t.Errorf("expected migrated record back, got %#x", got)
	}
}

func TestFreeListAllocFreeInvariant(t *testing.T) {
	// Property: after any interleaving of allocs and frees, the number of
	// live records plus Free() equals Capacity(), and no record is handed
	// out twice.
	m := New(smallLayout())
	base := m.Bounds().GoalBase
	fl := NewFreeList(m, base, base+96, 8)
	acc := DirectAccessor{m}
	live := make(map[word.Addr]bool)
	seq := []byte{1, 1, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1}
	for i, op := range seq {
		if op == 1 {
			a, ok := fl.Alloc(acc)
			if !ok {
				continue
			}
			if live[a] {
				t.Fatalf("step %d: record %#x double-allocated", i, a)
			}
			live[a] = true
		} else {
			for a := range live {
				fl.Push(acc, a)
				delete(live, a)
				break
			}
		}
		if len(live)+fl.Free() != fl.Capacity() {
			t.Fatalf("step %d: live %d + free %d != cap %d", i, len(live), fl.Free(), fl.Capacity())
		}
	}
}

func TestDirectAccessor(t *testing.T) {
	m := New(smallLayout())
	acc := DirectAccessor{m}
	a := m.Bounds().HeapBase
	acc.Write(a, word.Int(1))
	acc.DirectWrite(a+1, word.Int(2))
	acc.UnlockWrite(a+2, word.Int(3))
	if acc.Read(a).IntVal() != 1 || acc.ExclusiveRead(a+1).IntVal() != 2 ||
		acc.ReadPurge(a+2).IntVal() != 3 || acc.ReadInvalidate(a).IntVal() != 1 {
		t.Error("direct accessor round trip failed")
	}
	if w, ok := acc.LockRead(a); !ok || w.IntVal() != 1 {
		t.Error("LockRead failed")
	}
	acc.Unlock(a) // no-op, must not panic
}

func TestSemispaceFlip(t *testing.T) {
	b := NewSemispace(100, 300)
	if b.Base != 100 || b.Limit != 200 || b.OtherBase() != 200 || b.OtherLimit() != 300 {
		t.Fatalf("halves wrong: %+v", b)
	}
	a, ok := b.Alloc(50)
	if !ok || a != 100 {
		t.Fatalf("alloc %d,%v", a, ok)
	}
	b.Flip()
	if b.Base != 200 || b.Limit != 300 || b.Next != 200 || b.Scan != 200 {
		t.Fatalf("post-flip state: %+v", b)
	}
	if b.OtherBase() != 100 || b.OtherLimit() != 200 {
		t.Fatalf("other half wrong after flip: %+v", b)
	}
	// Allocation proceeds in the new half.
	a, ok = b.Alloc(10)
	if !ok || a != 200 {
		t.Fatalf("post-flip alloc %d,%v", a, ok)
	}
	// Flipping back restores the original half, empty.
	b.Flip()
	if b.Base != 100 || b.Next != 100 {
		t.Fatalf("second flip: %+v", b)
	}
}

func TestFlipOnPlainBumpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Flip on plain bump did not panic")
		}
	}()
	NewBump(0, 10).Flip()
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestUntouchedPageReadsZero(t *testing.T) {
	m := New(DefaultLayout())
	if res, total := m.Pages(); res != 0 || total != 2401 {
		t.Fatalf("fresh memory has %d of %d pages resident, want 0 of 2401", res, total)
	}
	a := m.Bounds().HeapBase + 3*pageWords
	if got := m.Read(a); got != 0 {
		t.Errorf("untouched word reads %v", got)
	}
	// The bus reuses its fetch buffer, so a block read from an
	// untouched page must overwrite stale contents.
	dst := []word.Word{word.Int(1), word.Int(2), word.Int(3), word.Int(4)}
	m.ReadBlock(a, dst)
	for i, w := range dst {
		if w != 0 {
			t.Errorf("ReadBlock of an untouched page left dst[%d] = %v", i, w)
		}
	}
	m.Write(a, 0)
	m.WriteBlock(a, make([]word.Word, 8))
	if res, _ := m.Pages(); res != 0 {
		t.Errorf("storing zeros allocated %d pages", res)
	}
	m.Write(a, word.Int(5))
	if res, _ := m.Pages(); res != 1 || m.Read(a) != word.Int(5) || m.Read(a+1) != 0 {
		t.Errorf("after one write: %d pages resident, words %v %v", res, m.Read(a), m.Read(a+1))
	}
}

func TestAccessPastSizePanics(t *testing.T) {
	m := New(DefaultLayout()) // 9,830,416 words: the last page holds 16
	end := word.Addr(m.Size())
	if end%pageWords != 16 {
		t.Fatalf("last page holds %d words, want 16", end%pageWords)
	}
	// Once untouched, once after the partial last page is allocated.
	for _, label := range []string{"untouched", "resident"} {
		mustPanic(t, label+" Read at Size", func() { m.Read(end) })
		mustPanic(t, label+" Write at Size", func() { m.Write(end, word.Int(1)) })
		mustPanic(t, label+" ReadBlock across Size", func() { m.ReadBlock(end-2, make([]word.Word, 4)) })
		mustPanic(t, label+" WriteBlock across Size", func() { m.WriteBlock(end-2, make([]word.Word, 4)) })
		mustPanic(t, label+" Read far past Size", func() { m.Read(end + 2*pageWords) })
		m.Write(end-1, word.Int(9))
	}
	if got := m.Read(end - 1); got != word.Int(9) {
		t.Errorf("last word reads %v", got)
	}
	s := NewStatsOnly(DefaultLayout())
	if res, total := s.Pages(); res != 0 || total != 0 {
		t.Errorf("stats-only memory has %d of %d pages", res, total)
	}
	mustPanic(t, "stats-only Read", func() { s.Read(s.Bounds().HeapBase) })
	mustPanic(t, "stats-only ReadBlock", func() { s.ReadBlock(s.Bounds().HeapBase, make([]word.Word, 4)) })
}

// TestBlockSpanningPages round-trips blocks larger than a page (the
// -block flag takes any power of two) and unaligned ones that cross a
// page boundary, over resident and untouched pages.
func TestBlockSpanningPages(t *testing.T) {
	m := New(DefaultLayout())
	base := (m.Bounds().HeapBase + 4*pageWords) &^ pageMask
	m.Write(base+pageWords+7, word.Int(77)) // make the middle page resident
	for _, c := range []struct {
		base word.Addr
		n    int
	}{
		{base, 2 * pageWords},
		{base + pageWords - 3, 8},
		{base + 100, 3 * pageWords},
	} {
		src := make([]word.Word, c.n)
		for i := range src {
			src[i] = word.Int(int64(i + 1))
		}
		m.WriteBlock(c.base, src)
		dst := make([]word.Word, c.n)
		m.ReadBlock(c.base, dst)
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("block at %#x+%d: word %d = %v, want %v", c.base, c.n, i, dst[i], src[i])
			}
		}
		if got := m.Read(c.base + word.Addr(c.n) - 1); got != src[c.n-1] {
			t.Fatalf("block at %#x+%d: last word reads %v", c.base, c.n, got)
		}
	}
}
