package bench

import (
	"fmt"
	"strings"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/mem"
	"pimcache/internal/stats"
)

// paper op categories: the paper's Table 3 groups the nine operations as
// R (all reads), LR, W (all writes), UW+U.
func opR(s *cache.Stats, area mem.Area) uint64 {
	return s.Refs[area][cache.OpR] + s.Refs[area][cache.OpER] +
		s.Refs[area][cache.OpRP] + s.Refs[area][cache.OpRI]
}

func opW(s *cache.Stats, area mem.Area) uint64 {
	return s.Refs[area][cache.OpW] + s.Refs[area][cache.OpDW]
}

func opLR(s *cache.Stats, area mem.Area) uint64 { return s.Refs[area][cache.OpLR] }

func opUWU(s *cache.Stats, area mem.Area) uint64 {
	return s.Refs[area][cache.OpUW] + s.Refs[area][cache.OpU]
}

var dataAreas = []mem.Area{mem.AreaHeap, mem.AreaGoal, mem.AreaSusp, mem.AreaComm}

// Table1 reproduces the benchmark summary: lines, simulated time (machine
// rounds), speedup on PEs relative to one PE, reductions, suspensions,
// abstract instructions, and memory references.
func Table1(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Table 1: Short Summary of Benchmarks on " + fmt.Sprint(d.Options.PEs) + " PEs",
		Columns: []string{"bench", "lines", "rounds", "su", "reduct", "susp", "instr", "ref"},
		Notes: []string{
			"rounds = machine round-robin sweeps (simulated-time proxy, replaces the paper's seconds)",
			"su = rounds(1 PE) / rounds(" + fmt.Sprint(d.Options.PEs) + " PEs)",
		},
	}
	for _, bd := range d.Benches {
		rd := bd.LiveByPEs[d.Options.PEs]
		su := "-"
		if one, ok := bd.LiveByPEs[1]; ok && rd.Result.Rounds > 0 {
			su = fmt.Sprintf("%.1f", float64(one.Result.Rounds)/float64(rd.Result.Rounds))
		}
		t.AddRow(bd.Name,
			fmt.Sprint(bd.Lines),
			fmt.Sprint(rd.Result.Rounds),
			su,
			fmt.Sprint(rd.Result.Emu.Reductions),
			fmt.Sprint(rd.Result.Emu.Suspensions),
			fmt.Sprintf("%.2fM", float64(rd.Result.Emu.Instructions)/1e6),
			fmt.Sprintf("%.2fM", float64(rd.Refs().TotalRefs())/1e6),
		)
	}
	return t
}

// Refs returns the run's issued-reference statistics.
func (r *RunData) Refs() *cache.Stats { return &r.Cache }

// areaPcts computes [inst, data, heap, goal, susp, comm] percentages of a
// per-area quantity.
func areaPcts(get func(mem.Area) uint64) []float64 {
	var total, data uint64
	inst := get(mem.AreaInst)
	total = inst
	for _, a := range dataAreas {
		v := get(a)
		total += v
		data += v
	}
	out := []float64{stats.Pct(inst, total), stats.Pct(data, total)}
	for _, a := range dataAreas {
		out = append(out, stats.Pct(get(a), total))
	}
	return out
}

// dataPcts computes [heap, goal, susp, comm] percentages of data-only.
func dataPcts(get func(mem.Area) uint64) []float64 {
	var data uint64
	for _, a := range dataAreas {
		data += get(a)
	}
	var out []float64
	for _, a := range dataAreas {
		out = append(out, stats.Pct(get(a), data))
	}
	return out
}

// dataRowCells formats an E(data) row: blanks under inst/data, then the
// four data-area percentages.
func dataRowCells(vals []float64) []string {
	cells := []string{"-", "-"}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf("%.2f", v))
	}
	return cells
}

func meansAndDevs(rows [][]float64) (means, devs []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	n := len(rows[0])
	for c := 0; c < n; c++ {
		var col []float64
		for _, r := range rows {
			col = append(col, r[c])
		}
		means = append(means, stats.Mean(col))
		devs = append(devs, stats.StdDev(col))
	}
	return means, devs
}

// Table2 reproduces "% Memory References and Bus Cycles by Area". As in
// the paper, the bus-cycle side is measured on the base cache with no
// optimized commands.
func Table2(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Table 2: % Memory References and Bus Cycles by Area",
		Columns: []string{"", "inst", "data", "heap", "goal", "susp", "comm"},
		Notes:   []string{"bus cycles measured with no optimized commands (paper base)"},
	}
	var refRows, busRows [][]float64
	for _, bd := range d.Benches {
		refs := bd.Refs
		refRows = append(refRows, areaPcts(func(a mem.Area) uint64 { return refs.RefsByArea(a) }))
		nb := bd.OptBus["None"]
		busRows = append(busRows, areaPcts(func(a mem.Area) uint64 { return nb.CyclesByArea[a] }))
	}
	m, s := meansAndDevs(refRows)
	t.AddRow("Mem Ref")
	t.AddFloats("E(inst+data)", "%.2f", m...)
	t.AddFloats("sigma(inst+data)", "%.2f", s...)
	var refDataRows [][]float64
	for _, bd := range d.Benches {
		refs := bd.Refs
		refDataRows = append(refDataRows, dataPcts(func(a mem.Area) uint64 { return refs.RefsByArea(a) }))
	}
	dm, _ := meansAndDevs(refDataRows)
	t.AddRow("E(data)", dataRowCells(dm)...)

	t.AddRow("Bus Cyc.")
	bm, bs := meansAndDevs(busRows)
	t.AddFloats("E(inst+data)", "%.2f", bm...)
	t.AddFloats("sigma(inst+data)", "%.2f", bs...)
	var busDataRows [][]float64
	for _, bd := range d.Benches {
		nb := bd.OptBus["None"]
		busDataRows = append(busDataRows, dataPcts(func(a mem.Area) uint64 { return nb.CyclesByArea[a] }))
	}
	bdm, _ := meansAndDevs(busDataRows)
	t.AddRow("E(data)", dataRowCells(bdm)...)
	for i, bd := range d.Benches {
		t.AddFloats(bd.Name, "%.2f", busRows[i]...)
	}
	return t
}

// Table3 reproduces "% Memory References by Operation".
func Table3(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Table 3: Percentage of Memory References by Operation",
		Columns: []string{"operation", "R", "LR", "W", "UW+U"},
		Notes:   []string{"R includes ER/RP/RI, W includes DW (the paper's grouping)"},
	}
	sumOver := func(s *cache.Stats, areas []mem.Area) []uint64 {
		var r, lr, w, u uint64
		for _, a := range areas {
			r += opR(s, a)
			lr += opLR(s, a)
			w += opW(s, a)
			u += opUWU(s, a)
		}
		return []uint64{r, lr, w, u}
	}
	pcts := func(vals []uint64) []float64 {
		var total uint64
		for _, v := range vals {
			total += v
		}
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = stats.Pct(v, total)
		}
		return out
	}
	allAreas := append([]mem.Area{mem.AreaInst}, dataAreas...)
	var totalRows, dataRows, heapRows [][]float64
	for _, bd := range d.Benches {
		refs := bd.Refs
		totalRows = append(totalRows, pcts(sumOver(&refs, allAreas)))
		dataRows = append(dataRows, pcts(sumOver(&refs, dataAreas)))
		heapRows = append(heapRows, pcts(sumOver(&refs, []mem.Area{mem.AreaHeap})))
	}
	tm, ts := meansAndDevs(totalRows)
	dm, ds := meansAndDevs(dataRows)
	hm, hs := meansAndDevs(heapRows)
	t.AddFloats("E(inst+data)", "%.2f", tm...)
	t.AddFloats("sigma(inst+data)", "%.2f", ts...)
	t.AddFloats("E(data)", "%.2f", dm...)
	t.AddFloats("sigma(data)", "%.2f", ds...)
	t.AddFloats("E(heap)", "%.2f", hm...)
	t.AddFloats("sigma(heap)", "%.2f", hs...)
	for i, bd := range d.Benches {
		t.AddFloats(bd.Name, "%.2f", heapRows[i]...)
	}
	return t
}

// Table4 reproduces "Effect of Optimized Cache Commands in Reducing Bus
// Traffic": bus cycles relative to the unoptimized configuration.
func Table4(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Table 4: Effect of Optimized Cache Commands (bus cycles relative to no-opt)",
		Columns: []string{"benchmark", "None", "Heap", "Goal", "Comm", "All"},
	}
	for _, bd := range d.Benches {
		none := bd.OptBus["None"].TotalCycles
		var cells []float64
		for _, v := range cache.OptionSets {
			cells = append(cells, stats.Ratio(bd.OptBus[v.Name].TotalCycles, none))
		}
		t.AddFloats(bd.Name, "%.2f", cells...)
	}
	return t
}

// Table5 reproduces "Hit Ratios of No Cost Lock Operations".
func Table5(d *Data) *stats.Table {
	cols := []string{""}
	for _, bd := range d.Benches {
		cols = append(cols, bd.Name)
	}
	t := &stats.Table{
		Title:   "Table 5: Hit Ratios of No Cost Lock Operations",
		Columns: cols,
	}
	var hit, excl, now []float64
	for _, bd := range d.Benches {
		cs := bd.OptCache["None"]
		hit = append(hit, stats.Ratio(cs.LRHits(), cs.LRTotal()))
		excl = append(excl, stats.Ratio(cs.LRHitExclusive, cs.LRTotal()))
		now = append(now, stats.Ratio(cs.UnlockNoWaiter, cs.UnlockNoWaiter+cs.UnlockWaiter))
	}
	t.AddFloats("LR hit-ratio", "%.3f", hit...)
	t.AddFloats("LR hit-to-Exclusive", "%.3f", excl...)
	t.AddFloats("U, UW hit-to-No-waiter", "%.3f", now...)
	return t
}

// Figure1 reproduces "Cache Block Size vs. Cache Miss Ratio and Bus
// Traffic" as two series (all optimized commands enabled).
func Figure1(d *Data) (miss, traffic *stats.Series) {
	miss = &stats.Series{Title: "Figure 1a: Block Size vs Miss Ratio", XLabel: "block(words)"}
	traffic = &stats.Series{Title: "Figure 1b: Block Size vs Bus Traffic (cycles)", XLabel: "block(words)"}
	for _, bd := range d.Benches {
		miss.YNames = append(miss.YNames, bd.Name)
		traffic.YNames = append(traffic.YNames, bd.Name)
	}
	if len(d.Benches) == 0 || len(d.Benches[0].BlockSweep) == 0 {
		return miss, traffic
	}
	for i := range d.Benches[0].BlockSweep {
		var ms, ts []float64
		x := fmt.Sprint(d.Benches[0].BlockSweep[i].Param)
		for _, bd := range d.Benches {
			ms = append(ms, bd.BlockSweep[i].MissRatio)
			ts = append(ts, float64(bd.BlockSweep[i].BusCycles))
		}
		miss.Add(x, ms...)
		traffic.Add(x, ts...)
	}
	return miss, traffic
}

// Figure2 reproduces "Cache Capacity vs. Bus Traffic" (plus miss ratio),
// reporting both data words and the paper's directory-bits metric.
func Figure2(d *Data) (miss, traffic *stats.Series) {
	miss = &stats.Series{Title: "Figure 2a: Capacity vs Miss Ratio", XLabel: "words(bits)"}
	traffic = &stats.Series{Title: "Figure 2b: Capacity vs Bus Traffic (cycles)", XLabel: "words(bits)"}
	for _, bd := range d.Benches {
		miss.YNames = append(miss.YNames, bd.Name)
		traffic.YNames = append(traffic.YNames, bd.Name)
	}
	if len(d.Benches) == 0 || len(d.Benches[0].CapSweep) == 0 {
		return miss, traffic
	}
	for i := range d.Benches[0].CapSweep {
		p := d.Benches[0].CapSweep[i]
		x := fmt.Sprintf("%d(%dk)", p.Param, p.DirectoryBits/1000)
		var ms, ts []float64
		for _, bd := range d.Benches {
			ms = append(ms, bd.CapSweep[i].MissRatio)
			ts = append(ts, float64(bd.CapSweep[i].BusCycles))
		}
		miss.Add(x, ms...)
		traffic.Add(x, ts...)
	}
	return miss, traffic
}

// Figure3 reproduces "Number of PEs vs. Bus Traffic", plus the in-text
// area-share shift (communication rising, heap falling with more PEs).
func Figure3(d *Data) (traffic *stats.Series, shares *stats.Table) {
	traffic = &stats.Series{Title: "Figure 3: Number of PEs vs Bus Traffic (cycles)", XLabel: "PEs"}
	for _, bd := range d.Benches {
		traffic.YNames = append(traffic.YNames, bd.Name)
	}
	shares = &stats.Table{
		Title:   "Figure 3 companion: % of bus cycles by area vs PEs (benchmark average)",
		Columns: []string{"PEs", "heap", "goal", "susp", "comm"},
	}
	for _, pes := range d.Options.PESweep {
		var ts []float64
		var rows [][]float64
		for _, bd := range d.Benches {
			rd, ok := bd.LiveByPEs[pes]
			if !ok {
				continue
			}
			ts = append(ts, float64(rd.Bus.TotalCycles))
			rows = append(rows, dataPcts(func(a mem.Area) uint64 { return rd.Bus.CyclesByArea[a] }))
		}
		if len(ts) == 0 {
			continue
		}
		traffic.Add(fmt.Sprint(pes), ts...)
		m, _ := meansAndDevs(rows)
		shares.AddFloats(fmt.Sprint(pes), "%.1f", m...)
	}
	return traffic, shares
}

// ExtraBusWidth reports the Section 4.4 two-word-bus experiment: traffic
// as a fraction of the one-word-bus traffic (paper: 62-75%).
func ExtraBusWidth(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Two-word bus traffic relative to one-word bus (Section 4.4; paper: 0.62-0.75)",
		Columns: []string{"benchmark", "1-word", "2-word", "ratio"},
	}
	for _, bd := range d.Benches {
		one := bd.OptBus["All"].TotalCycles
		two := bd.Width2.TotalCycles
		t.AddRow(bd.Name, fmt.Sprint(one), fmt.Sprint(two),
			fmt.Sprintf("%.2f", stats.Ratio(two, one)))
	}
	return t
}

// ExtraOptDetail reports the Section 4.6 in-text numbers: DW's reduction
// of heap swap-ins, and RI's elimination of invalidate commands.
func ExtraOptDetail(d *Data) *stats.Table {
	t := &stats.Table{
		Title: "Optimization detail (Section 4.6)",
		Columns: []string{"benchmark", "heap swap-in (Heap/None)",
			"I commands (Comm/None)", "goal cycles (Goal/None)"},
		Notes: []string{
			"paper: DW cuts heap swap-ins to 10-55%; RI avoids 60-70% of I commands",
		},
	}
	swapIns := func(s bus.Stats) uint64 {
		return s.CountByPattern[bus.PatSwapInMem] + s.CountByPattern[bus.PatSwapInMemSwapOut]
	}
	for _, bd := range d.Benches {
		none, heap := bd.OptBus["None"], bd.OptBus["Heap"]
		comm, goal := bd.OptBus["Comm"], bd.OptBus["Goal"]
		t.AddRow(bd.Name,
			fmt.Sprintf("%.2f", stats.Ratio(swapIns(heap), swapIns(none))),
			fmt.Sprintf("%.2f", stats.Ratio(comm.Commands[bus.CmdI], none.Commands[bus.CmdI])),
			fmt.Sprintf("%.2f", stats.Ratio(goal.CyclesByArea[mem.AreaGoal], none.CyclesByArea[mem.AreaGoal])),
		)
	}
	return t
}

// ExtraAssociativity reports the Section 4.3 in-text ablation: bus
// traffic by set associativity relative to the four-way base (paper:
// two-way costs ~18% more than four-way, direct-mapped far more).
func ExtraAssociativity(d *Data) *stats.Table {
	t := &stats.Table{
		Title:   "Set associativity vs bus traffic, relative to 4-way (Section 4.3)",
		Columns: []string{"benchmark", "1-way", "2-way", "4-way", "8-way"},
		Notes:   []string{"paper: 2-way is ~1.18x 4-way; direct mapped significantly greater"},
	}
	for _, bd := range d.Benches {
		var base uint64
		for _, p := range bd.WaySweep {
			if p.Param == 4 {
				base = p.BusCycles
			}
		}
		if base == 0 {
			continue
		}
		var cells []float64
		for _, p := range bd.WaySweep {
			cells = append(cells, stats.Ratio(p.BusCycles, base))
		}
		t.AddFloats(bd.Name, "%.2f", cells...)
	}
	return t
}

// ExtraProtocols compares total bus traffic across protocols: the
// write-through baseline, Illinois copy-back, the unoptimized PIM
// copy-back, and the full PIM cache. This is the Section 3 premise
// ("copyback cache protocols have been proved effective for reducing
// common bus traffic... AND-parallel Prolog benefits from copyback even
// more than procedural languages") plus the paper's contribution on top.
func ExtraProtocols(d *Data) *stats.Table {
	// The registry lists the paper's pim, illinois and writethrough
	// first; each protocol after them gets a column of its own.
	extra := cache.Protocols()[cache.ProtocolWriteThrough+1:]
	cols := []string{"benchmark", "write-through", "illinois", "pim", "pim+opts"}
	for _, p := range extra {
		cols = append(cols, p.String())
	}
	t := &stats.Table{
		Title:   "Protocol comparison: bus cycles relative to the unoptimized PIM copy-back",
		Columns: cols,
		Notes: []string{
			"write-through pays one bus transaction per store (Section 3 premise)",
			"extra registered protocols replay unoptimized, like the illinois column",
		},
	}
	for _, bd := range d.Benches {
		base := bd.OptBus["None"].TotalCycles
		cells := []float64{
			stats.Ratio(bd.ProtoBus[cache.ProtocolWriteThrough].TotalCycles, base),
			stats.Ratio(bd.ProtoBus[cache.ProtocolIllinois].TotalCycles, base),
			1.0,
			stats.Ratio(bd.OptBus["All"].TotalCycles, base),
		}
		for _, p := range extra {
			cells = append(cells, stats.Ratio(bd.ProtoBus[p].TotalCycles, base))
		}
		t.AddFloats(bd.Name, "%.2f", cells...)
	}
	return t
}

// RenderAll renders every table, figure and in-text experiment of the
// evaluation in canonical order. The output is a pure function of the
// dataset, so it doubles as the determinism oracle: Collect at any Jobs
// setting must render byte-identically to the serial run.
func RenderAll(d *Data) string {
	f1m, f1t := Figure1(d)
	f2m, f2t := Figure2(d)
	f3t, f3s := Figure3(d)
	parts := []string{
		Table1(d).String(), Table2(d).String(), Table3(d).String(),
		Table4(d).String(), Table5(d).String(),
		f1m.String(), f1t.String(),
		f2m.String(), f2t.String(),
		f3t.String(), f3s.String(),
		ExtraBusWidth(d).String(),
		ExtraAssociativity(d).String(),
		ExtraOptDetail(d).String(),
		ExtraProtocols(d).String(),
		ExtraIllinois(d).String(),
	}
	var sb strings.Builder
	for i, p := range parts {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(p)
	}
	return sb.String()
}

// ExtraIllinois reports the Section 3.1 SM-state rationale: shared-memory
// module occupancy under PIM vs the Illinois baseline.
func ExtraIllinois(d *Data) *stats.Table {
	t := &stats.Table{
		Title: "PIM (SM state) vs Illinois: shared-memory module busy cycles (Section 3.1)",
		Columns: []string{"benchmark", "PIM mem-busy", "Illinois mem-busy", "ratio",
			"PIM bus", "Illinois bus"},
		Notes: []string{"Illinois copies every supplied dirty block back to memory"},
	}
	for _, bd := range d.Benches {
		pim := bd.OptBus["None"]
		ill := bd.ProtoBus[cache.ProtocolIllinois]
		t.AddRow(bd.Name,
			fmt.Sprint(pim.MemBusyCycles), fmt.Sprint(ill.MemBusyCycles),
			fmt.Sprintf("%.2f", stats.Ratio(ill.MemBusyCycles, pim.MemBusyCycles)),
			fmt.Sprint(pim.TotalCycles), fmt.Sprint(ill.TotalCycles))
	}
	return t
}
