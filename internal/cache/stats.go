package cache

import "pimcache/internal/mem"

// Stats accumulates one cache's activity. References are recorded under
// the operation the software issued (so Table 3 can be produced whether
// or not optimizations are enabled) and the area of the address; the
// degradation counters record how the optimized commands actually acted.
type Stats struct {
	// Refs counts issued memory references by area and software op.
	Refs [mem.NumAreas][NumOps]uint64
	// Hits and Misses count block-directory lookups for operations that
	// access data (everything except U). A degraded optimized op counts
	// under its issued op.
	Hits   [NumOps]uint64
	Misses [NumOps]uint64

	// Lock protocol effectiveness (Table 5).
	LRHitExclusive uint64 // LR hits to EC/EM blocks: zero bus cost
	UnlockNoWaiter uint64 // U/UW releases in LCK state: no UL broadcast
	UnlockWaiter   uint64 // U/UW releases in LWAIT state: UL broadcast
	BusyWaits      uint64 // operations that received LH and busy-waited

	// Optimized-command outcomes.
	DWApplied  uint64 // fresh block allocated without fetch
	DWDegraded uint64 // DW treated as W (disabled, mid-block, or hit)
	ERInval    uint64 // ER acted as read-invalidate (case i)
	ERPurge    uint64 // ER purged own block after last-word read (case ii)
	ERDegraded uint64 // ER treated as R (case iii or disabled)
	RPApplied  uint64 // RP purged (hit) or fetched-without-install (miss)
	RPDegraded uint64 // RP treated as R (disabled or clean miss to memory)
	RIApplied  uint64 // RI took the block exclusively from a remote cache
	RIDegraded uint64 // RI treated as R (disabled, hit, or memory-sourced)

	// Evictions and purges.
	SwapOuts      uint64 // dirty victims written back
	PurgedDirty   uint64 // modified blocks discarded by ER/RP (dead data)
	Invalidations uint64 // copies lost to remote invalidations

	// Write-update protocol activity (zero under invalidate protocols,
	// so manifests and baselines for those are unchanged).
	UpdatesReceived uint64 // UP broadcasts applied to a resident copy
	AdaptiveDrops   uint64 // copies self-invalidated at the update threshold
	DWUpdateInvals  uint64 // applied DWs that had to invalidate live remote copies
}

// TotalRefs sums all references including instruction fetches.
func (s *Stats) TotalRefs() uint64 {
	var n uint64
	for a := 0; a < int(mem.NumAreas); a++ {
		for op := Op(0); op < NumOps; op++ {
			n += s.Refs[a][op]
		}
	}
	return n
}

// RefsByOp sums references of one op across areas.
func (s *Stats) RefsByOp(op Op) uint64 {
	var n uint64
	for a := 0; a < int(mem.NumAreas); a++ {
		n += s.Refs[a][op]
	}
	return n
}

// RefsByArea sums references to one area across ops.
func (s *Stats) RefsByArea(area mem.Area) uint64 {
	var n uint64
	for op := Op(0); op < NumOps; op++ {
		n += s.Refs[area][op]
	}
	return n
}

// LRTotal counts lock-read operations.
func (s *Stats) LRTotal() uint64 { return s.RefsByOp(OpLR) }

// LRHits counts lock-reads that hit in the cache.
func (s *Stats) LRHits() uint64 { return s.Hits[OpLR] }

// MissRatio is misses over lookups for all data-accessing ops.
func (s *Stats) MissRatio() float64 {
	var h, m uint64
	for op := Op(0); op < NumOps; op++ {
		h += s.Hits[op]
		m += s.Misses[op]
	}
	if h+m == 0 {
		return 0
	}
	return float64(m) / float64(h+m)
}

// Add merges other into s.
func (s *Stats) Add(o *Stats) {
	for a := range s.Refs {
		for op := range s.Refs[a] {
			s.Refs[a][op] += o.Refs[a][op]
		}
	}
	for op := range s.Hits {
		s.Hits[op] += o.Hits[op]
		s.Misses[op] += o.Misses[op]
	}
	s.LRHitExclusive += o.LRHitExclusive
	s.UnlockNoWaiter += o.UnlockNoWaiter
	s.UnlockWaiter += o.UnlockWaiter
	s.BusyWaits += o.BusyWaits
	s.DWApplied += o.DWApplied
	s.DWDegraded += o.DWDegraded
	s.ERInval += o.ERInval
	s.ERPurge += o.ERPurge
	s.ERDegraded += o.ERDegraded
	s.RPApplied += o.RPApplied
	s.RPDegraded += o.RPDegraded
	s.RIApplied += o.RIApplied
	s.RIDegraded += o.RIDegraded
	s.SwapOuts += o.SwapOuts
	s.PurgedDirty += o.PurgedDirty
	s.Invalidations += o.Invalidations
	s.UpdatesReceived += o.UpdatesReceived
	s.AdaptiveDrops += o.AdaptiveDrops
	s.DWUpdateInvals += o.DWUpdateInvals
}
