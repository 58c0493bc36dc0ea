package cache

// CoherenceProtocol is the coherence FSM of one protocol, factored out
// of the cache body. The Cache owns the mechanics every snooping
// protocol shares — directory lookup, LRU, the lock directory, bus
// transactions, the presence-filter bookkeeping — and delegates every
// protocol *decision* (which state a block enters, who supplies data,
// whether a transfer updates memory) to these hooks. Implementations
// are immutable values: per-block protocol state lives in the cache's
// state plane (and, for the adaptive protocol, the per-frame update
// counters), never in the protocol value, so one registry entry serves
// every cache.
//
// The hot read/write hit paths never call through the interface: the
// Cache caches WriteThrough/WriteUpdate/UpdateSelfInvalidate as plain
// fields at construction, so interface dispatch happens only on
// misses, snoops and upgrades — paths that already pay for a bus
// transaction.
type CoherenceProtocol interface {
	// WriteThrough selects the store-through, write-no-allocate write
	// path (every store is one bus word-write; blocks are never dirty;
	// the optimized commands degrade to R/W).
	WriteThrough() bool
	// WriteUpdate selects the write-update write path: a write to a
	// shared block broadcasts the word (bus UP command) instead of
	// invalidating the other copies.
	WriteUpdate() bool
	// UpdateSelfInvalidate returns the competitive-update threshold: a
	// holder that receives this many consecutive UP broadcasts for a
	// block without any local access in between drops its copy,
	// converting a migratory block back to invalidate behaviour. Zero
	// means never (pure write-update).
	UpdateSelfInvalidate() int

	// FetchState maps a fetch outcome to the state the requester
	// installs. inval distinguishes FI from F; fromCache, supplierDirty
	// and shared mirror FetchResult (shared includes the lock-forced
	// shared grant, which is why an FI can still install non-exclusive).
	FetchState(inval, fromCache, supplierDirty, shared bool) State
	// WriteOwnState is the state a writer settles in after taking
	// ownership of a block (shared-hit upgrade, write-miss fetch or
	// direct write). remoteLocked reports that a remote lock in the
	// block denies exclusivity: the writer must stay in its dirty-shared
	// state.
	WriteOwnState(remoteLocked bool) State
	// LockUpgradeState is the state after an LR's shared-hit I upgrade.
	// cur is the block's current state; dirtyKilled reports that the I
	// killed a remote modified copy (this cache must take over
	// write-back ownership); remoteLocked as in WriteOwnState. Return
	// cur to leave the state unchanged.
	LockUpgradeState(cur State, dirtyKilled, remoteLocked bool) State

	// SnoopShareState is the supplier-side downgrade for a remote F:
	// the next state, whether the block is simultaneously copied back
	// to memory (Illinois), and whether the supplier reports its copy
	// dirty to the requester (after any copy-back).
	SnoopShareState(cur State) (next State, copyBack, reportDirty bool)
	// SnoopInvalTransfer is the supplier-side policy for a remote
	// FI/I that kills a copy that was dirty (wasDirty): whether the
	// requester is told the data is dirty (it inherits write-back
	// ownership) and whether the dying copy is written back to memory
	// instead.
	SnoopInvalTransfer(wasDirty bool) (reportDirty, copyBack bool)
	// CleanSupplies reports whether a clean holder supplies data on a
	// snoop fetch. True for the PIM family (any holder answers H with
	// data); false under MOESI, where only the owner of a dirty block
	// supplies and memory serves requests for clean blocks.
	CleanSupplies() bool
}

// adaptiveUpdateLimit is ProtocolAdaptive's competitive threshold: a
// holder that receives this many consecutive updates for a block with
// no local access in between self-invalidates. Three keeps migratory
// write bursts cheap while letting a steady producer-consumer pair
// stay in update mode (the consumer's read resets the count).
const adaptiveUpdateLimit = 3

// pim is the paper's state machine, with SM as the dirty-shared owner.
var pim = pimProtocol{owner: SM}

// protocolRegistry is the list of protocols: each Protocol value's name
// (the -protocol flag value) and state machine. cliutil, pimtable,
// internal/check and the bench ablation enumerate it instead of
// hardcoding protocol lists, so a protocol added here automatically
// joins the flag parsers, the differential matrix, the transition-table
// derivation and the probe name tables.
var protocolRegistry = [...]struct {
	name string
	fsm  CoherenceProtocol
}{
	ProtocolPIM:          {"pim", pim},
	ProtocolIllinois:     {"illinois", illinoisProtocol{pim}},
	ProtocolWriteThrough: {"writethrough", wtProtocol{pim}},
	ProtocolMOESI:        {"moesi", moesiProtocol{pimProtocol{owner: O}}},
	ProtocolDragon:       {"dragon", dragonProtocol{pim}},
	ProtocolAdaptive:     {"adaptive", adaptiveProtocol{dragonProtocol{pim}}},
}

// Protocols returns every registered protocol in enum order.
func Protocols() []Protocol {
	ps := make([]Protocol, len(protocolRegistry))
	for i := range ps {
		ps[i] = Protocol(i)
	}
	return ps
}

// ProtocolByName resolves a registered protocol name.
func ProtocolByName(name string) (Protocol, bool) {
	for i, e := range protocolRegistry {
		if e.name == name {
			return Protocol(i), true
		}
	}
	return 0, false
}

// Impl returns the protocol's registered FSM implementation.
func (p Protocol) Impl() CoherenceProtocol {
	if int(p) < len(protocolRegistry) {
		return protocolRegistry[p].fsm
	}
	panic("cache: unregistered protocol")
}

// --- PIM (Section 3 of the paper) ---

// pimProtocol is the paper's five-state protocol: dirty blocks move
// cache-to-cache without updating memory (the owner state carries the
// write-back), and any holder supplies data. owner is the dirty-shared
// state the paper gives SM (Section 3.1); MOESI names it O.
type pimProtocol struct{ owner State }

func (pimProtocol) WriteThrough() bool        { return false }
func (pimProtocol) WriteUpdate() bool         { return false }
func (pimProtocol) UpdateSelfInvalidate() int { return 0 }

func (p pimProtocol) FetchState(inval, fromCache, supplierDirty, shared bool) State {
	switch {
	case inval && shared:
		// A remote lock in the block denies exclusivity (see
		// Bus.RemoteLockInBlock); a dirty supply still transfers
		// write-back ownership.
		if supplierDirty {
			return p.owner
		}
		return S
	case inval && supplierDirty:
		return EM
	case inval:
		return EC
	case fromCache || shared:
		return S
	default:
		return EC
	}
}

func (p pimProtocol) WriteOwnState(remoteLocked bool) State {
	if remoteLocked {
		return p.owner
	}
	return EM
}

func (p pimProtocol) LockUpgradeState(cur State, dirtyKilled, remoteLocked bool) State {
	switch {
	case remoteLocked:
		if dirtyKilled && cur == S {
			return p.owner
		}
		return cur
	case cur == p.owner || dirtyKilled:
		return EM
	default:
		return EC
	}
}

func (p pimProtocol) SnoopShareState(cur State) (State, bool, bool) {
	// No copy-back on transfer: a modified supplier keeps write-back
	// ownership in the owner state; clean exclusives downgrade to S.
	switch cur {
	case EM, p.owner:
		return p.owner, false, true
	default:
		return S, false, false
	}
}

func (pimProtocol) SnoopInvalTransfer(wasDirty bool) (reportDirty, copyBack bool) {
	return wasDirty, false
}

func (pimProtocol) CleanSupplies() bool { return true }

// --- Illinois baseline ---

// illinoisProtocol copies a dirty block back to shared memory whenever
// it is supplied, so every copy ends up clean — exactly the
// memory-module pressure the PIM SM state avoids. (A remote lock can
// still force a dirty writer to stay shared in SM.)
type illinoisProtocol struct{ pimProtocol }

func (illinoisProtocol) SnoopShareState(cur State) (State, bool, bool) {
	if cur.Dirty() {
		return S, true, false
	}
	return S, false, false
}

func (illinoisProtocol) SnoopInvalTransfer(wasDirty bool) (reportDirty, copyBack bool) {
	return false, wasDirty
}

// --- write-through baseline ---

// wtProtocol is write-through with invalidation, write-no-allocate:
// the cache body short-circuits its write path (WriteThrough), so the
// remaining hooks only ever see the read and lock paths — blocks are
// never dirty and EM/SM are unreachable.
type wtProtocol struct{ pimProtocol }

func (wtProtocol) WriteThrough() bool { return true }

// --- MOESI ---

// moesiProtocol is PIM's state machine with O as its owner state: a
// dirty supplier downgrades EM→O and keeps the write-back. What sets it
// apart is the clean-supply policy: only a dirty owner ever supplies
// data — clean holders answer H to assert sharing but shared memory
// serves the block — and with it the memory-sourced pattern mix.
type moesiProtocol struct{ pimProtocol }

func (moesiProtocol) CleanSupplies() bool { return false }

// --- Dragon write-update ---

// dragonProtocol reuses the PIM state plane with Dragon's reading: S
// is Sc (shared clean), SM is Sm (shared dirty, owns the write-back),
// EC is E, EM is M. Reads, fetch installs, snoops and lock upgrades
// are exactly the PIM transitions; only the write path differs — a
// write to a shared block broadcasts the word (UP) instead of
// invalidating, and a write miss fetches with F (non-invalidating)
// and then updates if the grant was shared. Lock acquisition stays
// invalidate-based: a lock needs exclusivity, not freshness.
type dragonProtocol struct{ pimProtocol }

func (dragonProtocol) WriteUpdate() bool { return true }

// --- adaptive write-update/write-invalidate ---

// adaptiveProtocol is Dragon plus competitive self-invalidation: each
// holder counts consecutive received updates per frame (reset by any
// local access) and drops its copy at the threshold. Producer-consumer
// blocks — the comm area's write-once/read-once messages — keep update
// behaviour because the consumer's read resets its counter; migratory
// blocks stop paying an update per write after the threshold, from
// which point the writer's next update finds no holders and it settles
// in M, exactly as under an invalidate protocol.
type adaptiveProtocol struct{ dragonProtocol }

func (adaptiveProtocol) UpdateSelfInvalidate() int { return adaptiveUpdateLimit }
