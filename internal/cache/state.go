// Package cache implements the PIM coherent cache of Section 3 of the
// paper: a copy-back, write-allocate, snooping cache with five block
// states (EM, EC, SM, S, INV), a separate word-granular lock directory
// with three states (LCK, LWAIT, EMP), and the four software-controlled
// optimized memory commands — direct write (DW), exclusive read (ER),
// read purge (RP) and read invalidate (RI) — that degrade to plain
// read/write exactly as specified when their preconditions fail or when
// they are disabled for a storage area.
//
// Config.Protocol selects the coherence protocol from a registry of six
// (protocol.go): the paper's PIM protocol, the Illinois baseline of its
// Section 3.1 comparison (copy-back to memory on every dirty transfer),
// write-through, MOESI, and the write-update protocols dragon and
// adaptive. Each frame's directory entry, block base and state, is one
// word of the tag plane. Lock conflicts are the bus's: an LR that draws
// LH blocks until the unlock, and any other operation's retry has run by
// the time the bus returns.
//
// DeriveTransitions (transitions.go) rebuilds each protocol's transition
// tables from its state machine alone: a breadth-first search over two
// caches sharing one block finds every state pair the protocol can
// reach, and each row applies one processor operation from a fresh
// rebuild of its pair.
package cache

import (
	"fmt"

	"pimcache/internal/probe"
)

// State is a cache block state.
type State uint8

const (
	// INV: the block is invalid.
	INV State = iota
	// S: the block is clean and perhaps shared; no swap-out needed.
	S
	// SM: the block is modified and perhaps shared; this cache owns the
	// eventual swap-out. This is the state the PIM protocol adds over
	// Illinois: a dirty block can be passed around without updating
	// shared memory.
	SM
	// EC: the block is exclusive and clean.
	EC
	// EM: the block is exclusive and modified.
	EM
	// O: the block is modified and perhaps shared, and this cache owns
	// the eventual swap-out — MOESI's Owned state. It plays the same
	// dirty-shared role SM does for the PIM protocol; MOESI keeps it
	// distinct because only the owner supplies data on a snoop fetch
	// (clean holders defer to memory), where any PIM holder supplies.
	O

	numStates
)

// String names the state as in the paper (probe's table).
func (s State) String() string { return probe.StateName(uint8(s)) }

// Dirty reports whether the state obliges a swap-out on eviction.
func (s State) Dirty() bool { return s == EM || s == SM || s == O }

// Exclusive reports whether no other cache can hold the block.
func (s State) Exclusive() bool { return s == EC || s == EM }

// Valid reports whether the block holds usable data.
func (s State) Valid() bool { return s != INV }

// Op is a software memory operation (Section 3.2).
type Op uint8

const (
	// OpR is a normal read.
	OpR Op = iota
	// OpW is a normal write (fetch-on-write allocation).
	OpW
	// OpLR locks a word and reads it.
	OpLR
	// OpUW writes a word and unlocks it.
	OpUW
	// OpU unlocks a word.
	OpU
	// OpDW writes without fetching (fresh memory only).
	OpDW
	// OpER reads write-once/read-once data, purging dead copies.
	OpER
	// OpRP reads and forcibly purges the block.
	OpRP
	// OpRI reads taking the block exclusively for an imminent rewrite.
	OpRI

	// NumOps sizes per-op statistics arrays.
	NumOps
)

// String returns the paper's mnemonic (probe's table).
func (o Op) String() string { return probe.OpName(uint8(o)) }

// IsWrite reports whether the operation stores to memory.
func (o Op) IsWrite() bool { return o == OpW || o == OpUW || o == OpDW }

// LockState is a lock-directory entry state (Section 3.1).
type LockState uint8

const (
	// EMP: the entry is empty (not locked).
	EMP LockState = iota
	// LCK: the address is locked by this PE with no waiters.
	LCK
	// LWAIT: the address is locked by this PE and at least one other PE
	// is busy-waiting for the unlock broadcast.
	LWAIT
)

// String names the lock state as in the paper.
func (s LockState) String() string {
	switch s {
	case EMP:
		return "EMP"
	case LCK:
		return "LCK"
	case LWAIT:
		return "LWAIT"
	}
	return fmt.Sprintf("lockstate(%d)", uint8(s))
}
