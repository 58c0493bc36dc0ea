package bench

import (
	"reflect"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/trace"

	"pimcache/internal/bench/programs"
)

// equivScales are the smallest workloads that still touch every op and
// both lock outcomes; the equivalence oracle cares about exactness, not
// statistics.
var equivScales = map[string]int{"Tri": 6, "Semi": 64, "Puzzle": 2, "Pascal": 3}

// filterCfg returns the base cache config with the bus filters toggled.
func filterCfg(opts cache.Options, disable bool) cache.Config {
	cfg := BaseCache(opts)
	cfg.DisableBusFilters = disable
	return cfg
}

// TestFilterEquivalence is the presence-filter correctness oracle: for
// every benchmark program, live runs at 1–16 PEs and trace replays under
// all three protocols must produce bit-identical bus.Stats and
// cache.Stats with the filters on and off. Any divergence means a filter
// skipped a snoop or lock poll that had an observable effect.
func TestFilterEquivalence(t *testing.T) {
	pesList := []int{1, 2, 4, 8, 16}
	if testing.Short() {
		pesList = []int{1, 4, 16}
	}
	for _, b := range programs.All() {
		b := b
		scale, ok := equivScales[b.Name]
		if !ok {
			scale = b.SmallScale
		}
		if testing.Short() && b.Name == "Semi" {
			continue // the largest stream; the other three cover every op
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			// Live runs: the machine drives caches directly, exercising
			// install/evict/purge/snoop notification on every path.
			recorded := -1
			var trFiltered *trace.Trace
			for _, pes := range pesList {
				record := trFiltered == nil && pes >= 4
				on, trOn, err := RunLive(b, scale, pes, filterCfg(cache.OptionsAll(), false), record)
				if err != nil {
					t.Fatalf("filtered live run at %d PEs: %v", pes, err)
				}
				off, _, err := RunLive(b, scale, pes, filterCfg(cache.OptionsAll(), true), false)
				if err != nil {
					t.Fatalf("unfiltered live run at %d PEs: %v", pes, err)
				}
				if on.Bus != off.Bus {
					t.Errorf("%d PEs: bus stats diverge\nfiltered:   %+v\nunfiltered: %+v", pes, on.Bus, off.Bus)
				}
				if on.Cache != off.Cache {
					t.Errorf("%d PEs: cache stats diverge\nfiltered:   %+v\nunfiltered: %+v", pes, on.Cache, off.Cache)
				}
				if record {
					trFiltered = trOn
					recorded = pes
				}
			}
			if trFiltered == nil {
				t.Fatal("no trace recorded")
			}
			// Replays: the same stream under every protocol, filters
			// toggled via the cache config only.
			protocols := []struct {
				name  string
				opts  cache.Options
				proto cache.Protocol
			}{
				{"pim", cache.OptionsAll(), cache.ProtocolPIM},
				{"illinois", cache.OptionsNone(), cache.ProtocolIllinois},
				{"writethrough", cache.OptionsNone(), cache.ProtocolWriteThrough},
			}
			for _, p := range protocols {
				cfgOn := filterCfg(p.opts, false)
				cfgOn.Protocol = p.proto
				cfgOff := filterCfg(p.opts, true)
				cfgOff.Protocol = p.proto
				bsOn, csOn, err := ReplayConfig(trFiltered, cfgOn, bus.DefaultTiming(), nil)
				if err != nil {
					t.Fatalf("%s filtered replay (%d PEs): %v", p.name, recorded, err)
				}
				bsOff, csOff, err := ReplayConfig(trFiltered, cfgOff, bus.DefaultTiming(), nil)
				if err != nil {
					t.Fatalf("%s unfiltered replay: %v", p.name, err)
				}
				if bsOn != bsOff {
					t.Errorf("%s: bus stats diverge\nfiltered:   %+v\nunfiltered: %+v", p.name, bsOn, bsOff)
				}
				if csOn != csOff {
					t.Errorf("%s: cache stats diverge\nfiltered:   %+v\nunfiltered: %+v", p.name, csOn, csOff)
				}
			}
		})
	}
}

// TestFilterEquivalenceRenderAll runs a reduced but structurally complete
// evaluation — live PE sweep, optimization variants, block/capacity/way
// sweeps, two-word bus and the protocol baselines — with the filters on,
// then rebuilds its dataset with the filters off: every PE-sweep point
// runs live, recording at Options.PEs, and every row of the replay table
// gets its own replay of that trace. The two datasets must be equal.
func TestFilterEquivalenceRenderAll(t *testing.T) {
	old := quickScales["Puzzle"]
	quickScales["Puzzle"] = 2
	defer func() { quickScales["Puzzle"] = old }()

	o := Options{
		Quick:           true,
		PEs:             4,
		PESweep:         []int{1, 2, 4},
		BlockSizes:      []int{2, 4},
		Capacities:      []int{1 << 10, 4 << 10},
		Associativities: []int{1, 4},
		Benchmarks:      []string{"Puzzle"},
		Jobs:            1,
	}
	data, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(RenderAll(data)) == 0 {
		t.Fatal("rendered evaluation is empty")
	}
	bd := data.Benches[0]
	b, _ := programs.ByName("Puzzle")

	want := newBenchData(b, bd.Scale)
	var tr *trace.Trace
	for _, pes := range o.PESweep {
		rd, recorded, err := RunLive(b, bd.Scale, pes, filterCfg(cache.OptionsAll(), true), pes == o.PEs)
		if err != nil {
			t.Fatalf("unfiltered live run at %d PEs: %v", pes, err)
		}
		want.LiveByPEs[pes] = rd
		if recorded != nil {
			tr, want.Refs = recorded, rd.Cache
		}
	}
	jobs, _ := o.replayTable()
	for _, j := range jobs {
		cfg := j.cfg
		cfg.DisableBusFilters = true
		bs, cs, err := ReplayConfig(tr, cfg, j.timing, nil)
		if err != nil {
			t.Fatalf("%s unfiltered replay: %v", j.label, err)
		}
		j.store(want, bs, cs)
	}
	if !reflect.DeepEqual(bd, want) {
		t.Errorf("filtered evaluation differs from unfiltered\nfiltered:   %+v\nunfiltered: %+v", bd, want)
	}
}
