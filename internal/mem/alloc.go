package mem

import (
	"fmt"

	"pimcache/internal/kl1/word"
)

// Bump is the heap allocator: per-PE bump allocation over a private
// segment of the shared heap area. KL1 allocates new structures at the
// top of the heap ("an ever-growing stack"); reclamation is only by the
// copying garbage collector, whose Flip empties the other half.
//
// The allocation pointer itself is processor state (a register in the
// paper's accounting), so Alloc generates no simulated memory references;
// the writes that initialize the allocated cells do.
type Bump struct {
	Base  word.Addr
	Next  word.Addr
	Limit word.Addr

	// Semispace state for stop-and-copy collection. When the allocator
	// was built with NewSemispace, Flip exchanges the active half with
	// [otherBase, otherLimit) and Scan tracks the Cheney gray boundary.
	otherBase  word.Addr
	otherLimit word.Addr
	semispace  bool
	Scan       word.Addr
}

// NewBump returns a bump allocator over [base, limit).
func NewBump(base, limit word.Addr) *Bump {
	return &Bump{Base: base, Next: base, Limit: limit}
}

// NewSemispace splits [base, limit) into two halves and allocates from
// the first; Flip switches to the other for copying collection.
func NewSemispace(base, limit word.Addr) *Bump {
	mid := base + (limit-base)/2
	return &Bump{
		Base: base, Next: base, Limit: mid,
		otherBase: mid, otherLimit: limit,
		semispace: true,
	}
}

// OtherBase returns the inactive half's base (semispace allocators only).
func (b *Bump) OtherBase() word.Addr { return b.otherBase }

// OtherLimit returns the inactive half's limit.
func (b *Bump) OtherLimit() word.Addr { return b.otherLimit }

// Flip makes the inactive half active and empty, and resets the Cheney
// scan pointer. The collector then evacuates live objects into it.
func (b *Bump) Flip() {
	if !b.semispace {
		panic("mem: Flip on a non-semispace allocator")
	}
	b.Base, b.otherBase = b.otherBase, b.Base
	b.Limit, b.otherLimit = b.otherLimit, b.Limit
	b.Next = b.Base
	b.Scan = b.Base
}

// Alloc reserves n contiguous words and returns the base address. ok is
// false when the segment is exhausted, signalling that a garbage
// collection is required.
func (b *Bump) Alloc(n int) (a word.Addr, ok bool) {
	if b.Next+word.Addr(n) > b.Limit {
		return 0, false
	}
	a = b.Next
	b.Next += word.Addr(n)
	return a, true
}

// Used reports the number of allocated words.
func (b *Bump) Used() int { return int(b.Next - b.Base) }

// Free reports the remaining capacity in words.
func (b *Bump) Free() int { return int(b.Limit - b.Next) }

// FreeList manages fixed-size records within one PE's segment of a
// record area (goal, suspension or communication). The paper states these
// areas are "managed with free-lists"; the links live in simulated memory
// (the first word of each free record), so popping and pushing records
// generates real memory traffic, while the list head is processor state.
//
// Records are block-aligned when recordWords is a multiple of the cache
// block size, which lets the runtime create records with DW and consume
// them with ER as described in Section 2.3 of the paper.
type FreeList struct {
	head     word.Addr // NilAddr when empty
	free     int
	capacity int
}

// NewFreeList carves [base, limit) into records of recordWords words and
// links them through memory directly (initialization is system boot, not
// program execution, so it is not routed through a cache port).
func NewFreeList(m *Memory, base, limit word.Addr, recordWords int) *FreeList {
	if recordWords < 1 {
		panic(fmt.Sprintf("mem: record size %d too small", recordWords))
	}
	n := int(limit-base) / recordWords
	fl := &FreeList{free: n, capacity: n}
	fl.head = word.NilAddr
	// Link records last-to-first so allocation proceeds from low
	// addresses upward, which keeps early records block-contiguous.
	for i := n - 1; i >= 0; i-- {
		rec := base + word.Addr(i*recordWords)
		m.Write(rec, word.Free(fl.head))
		fl.head = rec
	}
	return fl
}

// Free reports how many records are available.
func (fl *FreeList) Free() int { return fl.free }

// Capacity reports the total number of records.
func (fl *FreeList) Capacity() int { return fl.capacity }

// Alloc pops a record, reading its link word through acc. ok is false
// when the list is empty.
func (fl *FreeList) Alloc(acc Accessor) (a word.Addr, ok bool) {
	if fl.head == word.NilAddr {
		return 0, false
	}
	a = fl.head
	link := acc.Read(a)
	if link.Tag() != word.TagFree {
		panic(fmt.Sprintf("mem: free list corrupted at %#x: %v", a, link))
	}
	fl.head = link.Addr()
	fl.free--
	return a, true
}

// Push returns a record to the list, writing its link word through acc.
// The record need not have been allocated from this list: goal records
// migrate between PEs during load balancing and are freed to the
// consumer's list.
func (fl *FreeList) Push(acc Accessor, a word.Addr) {
	acc.Write(a, word.Free(fl.head))
	fl.head = a
	fl.free++
}
