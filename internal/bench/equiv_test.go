package bench

import (
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
// sweeps, two-word bus, Illinois and write-through — with the filters on
// and off, and requires byte-identical rendered output.
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
	filtered, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	o.DisableBusFilters = true
	unfiltered, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	got, want := RenderAll(filtered), RenderAll(unfiltered)
	if len(want) == 0 {
		t.Fatal("rendered evaluation is empty")
	}
	// The Options line is not part of the rendered tables, so the two
	// runs must agree byte-for-byte.
	if got != want {
		t.Errorf("filtered evaluation differs from unfiltered\n--- filtered ---\n%s\n--- unfiltered ---\n%s", got, want)
	}
}
