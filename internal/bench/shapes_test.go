package bench

import (
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/mem"
	"pimcache/internal/stats"
)

// fullQuickData collects the complete quick-scale evaluation (all four
// benchmarks, sweeps included) once.
var fullQuickData *Data

func quadDataset(t *testing.T) *Data {
	t.Helper()
	if testing.Short() {
		t.Skip("full quick evaluation takes ~10s")
	}
	if fullQuickData == nil {
		o := DefaultOptions()
		o.Quick = true
		d, err := Collect(o)
		if err != nil {
			t.Fatal(err)
		}
		fullQuickData = d
	}
	return fullQuickData
}

// TestShapeTable4 asserts the paper's headline: the optimized commands
// cut bus traffic substantially, and DW (the Heap column) contributes
// almost all of the savings.
func TestShapeTable4(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		none := float64(bd.OptBus["None"].TotalCycles)
		all := float64(bd.OptBus["All"].TotalCycles)
		heap := float64(bd.OptBus["Heap"].TotalCycles)
		if all/none > 0.90 {
			t.Errorf("%s: All saves too little (%.2f)", bd.Name, all/none)
		}
		if bd.Name == "Semi" {
			// The reconstructed Semi is read-mostly, so its (small)
			// savings spread across the optimization sites; see
			// EXPERIMENTS.md.
			continue
		}
		heapSaving := none - heap
		totalSaving := none - all
		if heapSaving < 0.5*totalSaving {
			t.Errorf("%s: DW contributes only %.0f%% of the savings (paper: almost all)",
				bd.Name, 100*heapSaving/totalSaving)
		}
	}
}

// TestShapeBlockSize asserts Figure 1's trade-off: miss ratio improves
// with block size well past four words, but four-word blocks are at or
// near the bus-traffic minimum, and sixteen-word blocks are clearly
// worse.
func TestShapeBlockSize(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		points := map[int]SweepPoint{}
		for _, p := range bd.BlockSweep {
			points[p.Param] = p
		}
		if points[4].MissRatio >= points[1].MissRatio {
			t.Errorf("%s: miss ratio did not improve from 1 to 4 word blocks", bd.Name)
		}
		best := points[4].BusCycles
		if float64(points[4].BusCycles) > 1.1*float64(minCycles(bd.BlockSweep)) {
			t.Errorf("%s: 4-word blocks (%d cycles) far from the traffic minimum (%d)",
				bd.Name, best, minCycles(bd.BlockSweep))
		}
		if points[16].BusCycles <= points[4].BusCycles {
			t.Errorf("%s: 16-word blocks did not increase traffic", bd.Name)
		}
	}
}

func minCycles(ps []SweepPoint) uint64 {
	m := ps[0].BusCycles
	for _, p := range ps {
		if p.BusCycles < m {
			m = p.BusCycles
		}
	}
	return m
}

// TestShapeCapacityKnee asserts Figure 2: traffic falls monotonically
// with capacity and most of the improvement is gone by 8K words.
func TestShapeCapacityKnee(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		first := bd.CapSweep[0].BusCycles
		last := bd.CapSweep[len(bd.CapSweep)-1].BusCycles
		var at8k uint64
		prev := uint64(1) << 62
		for _, p := range bd.CapSweep {
			if p.BusCycles > prev {
				t.Errorf("%s: traffic rose at capacity %d", bd.Name, p.Param)
			}
			prev = p.BusCycles
			if p.Param == 8<<10 {
				at8k = p.BusCycles
			}
		}
		// At 8K words at least ~70% of the total 512->16K improvement is
		// realized.
		if first > last {
			gain := float64(first - last)
			got := float64(first - at8k)
			if got < 0.7*gain {
				t.Errorf("%s: knee after 8K (%.0f%% of gain realized)", bd.Name, 100*got/gain)
			}
		}
	}
}

// TestShapeCommunicationGrowth asserts Figure 3's in-text claim: the
// communication share of bus cycles grows with PEs while the heap share
// falls.
func TestShapeCommunicationGrowth(t *testing.T) {
	d := quadDataset(t)
	share := func(pes int, area mem.Area) float64 {
		var vals []float64
		for _, bd := range d.Benches {
			rd := bd.LiveByPEs[pes]
			vals = append(vals, stats.Pct(rd.Bus.CyclesByArea[area], rd.Bus.TotalCycles))
		}
		return stats.Mean(vals)
	}
	if c1, c8 := share(1, mem.AreaComm), share(8, mem.AreaComm); c8 <= c1 {
		t.Errorf("comm share did not grow: %.1f%% -> %.1f%%", c1, c8)
	}
	if h1, h8 := share(1, mem.AreaHeap), share(8, mem.AreaHeap); h8 >= h1 {
		t.Errorf("heap share did not fall: %.1f%% -> %.1f%%", h1, h8)
	}
}

// TestShapeLockProtocol asserts Table 5's conclusion: locking is almost
// free — unlocks essentially never broadcast, and (outside the
// reconstructed Semi, see EXPERIMENTS.md) most lock-reads hit exclusive
// blocks.
func TestShapeLockProtocol(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		cs := bd.OptCache["None"]
		noWaiter := stats.Ratio(cs.UnlockNoWaiter, cs.UnlockNoWaiter+cs.UnlockWaiter)
		if noWaiter < 0.95 {
			t.Errorf("%s: only %.3f of unlocks found no waiter", bd.Name, noWaiter)
		}
		if bd.Name == "Semi" {
			continue
		}
		if excl := stats.Ratio(cs.LRHitExclusive, cs.LRTotal()); excl < 0.5 {
			t.Errorf("%s: LR hit-to-exclusive only %.3f", bd.Name, excl)
		}
	}
}

// TestShapeBusWidth asserts the Section 4.4 band: a two-word bus carries
// the workloads in 55-85% of the one-word-bus cycles.
func TestShapeBusWidth(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		r := stats.Ratio(bd.Width2.TotalCycles, bd.OptBus["All"].TotalCycles)
		if r < 0.55 || r > 0.85 {
			t.Errorf("%s: two-word-bus ratio %.2f outside the plausible band", bd.Name, r)
		}
	}
}

// TestShapeIllinoisMemoryPressure asserts the Section 3.1 rationale for
// the SM state: Illinois occupies the memory module more than PIM on
// every benchmark, at essentially equal bus traffic.
func TestShapeIllinoisMemoryPressure(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		pim, ill := bd.OptBus["None"], bd.ProtoBus[cache.ProtocolIllinois]
		if ill.MemBusyCycles <= pim.MemBusyCycles {
			t.Errorf("%s: Illinois mem busy %d not above PIM %d",
				bd.Name, ill.MemBusyCycles, pim.MemBusyCycles)
		}
		ratio := float64(ill.TotalCycles) / float64(pim.TotalCycles)
		if ratio < 0.95 || ratio > 1.05 {
			t.Errorf("%s: bus traffic should be nearly equal, ratio %.3f", bd.Name, ratio)
		}
	}
}

// TestShapeAssociativity asserts the Section 4.3 text: direct-mapped
// caches generate significantly more traffic than four-way; two-way
// falls between.
func TestShapeAssociativity(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		byWays := map[int]uint64{}
		for _, p := range bd.WaySweep {
			byWays[p.Param] = p.BusCycles
		}
		if byWays[1] <= byWays[2] || byWays[2] < byWays[4] {
			t.Errorf("%s: associativity ordering broken: 1w=%d 2w=%d 4w=%d",
				bd.Name, byWays[1], byWays[2], byWays[4])
		}
		if float64(byWays[1]) < 1.1*float64(byWays[4]) {
			t.Errorf("%s: direct-mapped only %.2fx of 4-way (paper: significantly greater)",
				bd.Name, float64(byWays[1])/float64(byWays[4]))
		}
	}
}

// TestShapeWriteThrough asserts the Section 3 premise: write-through
// generates far more bus traffic than the copy-back protocols on these
// write-heavy workloads.
func TestShapeWriteThrough(t *testing.T) {
	d := quadDataset(t)
	for _, bd := range d.Benches {
		base := bd.OptBus["None"].TotalCycles
		// Write-no-allocate also skips fetch-on-write misses, so the gap
		// narrows on migration-heavy streams; it must still clearly lose.
		wt := bd.ProtoBus[cache.ProtocolWriteThrough].TotalCycles
		if float64(wt) < 1.2*float64(base) {
			t.Errorf("%s: write-through only %.2fx of copy-back (paper premise: more traffic)",
				bd.Name, float64(wt)/float64(base))
		}
	}
}
