package bench

import (
	"errors"
	"fmt"
	"testing"

	"pimcache/internal/bench/programs"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/machine"
)

// TestLiveRunsTouchFewPages: the paged memory image holds only what a
// live run writes. Each quick run leaves at most a fifth of the bench
// layout's pages resident (about 330 of 2401 when measured; the goal
// and suspension free lists alone account for 320).
func TestLiveRunsTouchFewPages(t *testing.T) {
	o := Options{Quick: true}
	for _, name := range []string{"Tri", "Semi", "Puzzle", "Pascal"} {
		b, _ := programs.ByName(name)
		for _, pes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/%dPE", name, pes), func(t *testing.T) {
				t.Parallel()
				scale := o.ScaleFor(b)
				im, err := compile.Source(b.Source(scale))
				if err != nil {
					t.Fatal(err)
				}
				mcfg := machine.DefaultConfig()
				mcfg.PEs, mcfg.Cache = pes, BaseCache(cache.OptionsAll())
				cl, err := emulator.NewCluster(im, mcfg, emulator.DefaultConfig(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res := cl.Run(0); res.Failed || res.Output != b.Expected(scale) {
					t.Fatalf("live run failed: %+v", res)
				}
				resident, total := cl.Machine.Memory().Pages()
				t.Logf("%d of %d pages resident", resident, total)
				if resident*5 > total {
					t.Errorf("%d of %d pages resident, want at most a fifth", resident, total)
				}
			})
		}
	}
}

// TestLargeBlockLiveRun: blocks larger than a memory page (any power of
// two is a valid -block) run, with the statistics the flat memory
// image gave.
func TestLargeBlockLiveRun(t *testing.T) {
	b, _ := programs.ByName("Tri")
	cfg := BaseCache(cache.OptionsNone())
	cfg.BlockWords, cfg.SizeWords = 8192, 32768
	rd, _, err := RunLive(b, 3, 2, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	var misses uint64
	for _, n := range rd.Cache.Misses {
		misses += n
	}
	got := [...]uint64{rd.Cache.TotalRefs(), misses, rd.Bus.TotalCycles, rd.Bus.MemBusyCycles, rd.Result.Rounds, rd.Result.Emu.Reductions}
	want := [...]uint64{57469, 2180, 21172249, 9544, 15556, 1968}
	if got != want {
		t.Errorf("refs, misses, bus cycles, memory busy, rounds, reductions = %v, want %v", got, want)
	}
}

// TestGoalOptsRefuseLargeBlocks: goal records are 16 words, and the
// goal area's DW/ER/RP act on whole blocks, so a live run with them at
// larger blocks would corrupt the neighbouring free record (it used to
// panic with "mem: free list corrupted"). The runtime refuses such a
// configuration before the run with an ErrMachineConfig error; the other
// areas' optimized commands still run at large blocks.
func TestGoalOptsRefuseLargeBlocks(t *testing.T) {
	b, _ := programs.ByName("Tri")
	for _, c := range []struct {
		opts  cache.Options
		block int
	}{
		{cache.OptionsGoal(), 32},
		{cache.OptionsAll(), 64},
		{cache.OptionsAll(), 8192},
	} {
		cfg := BaseCache(c.opts)
		cfg.BlockWords, cfg.SizeWords = c.block, 4*c.block
		if _, _, err := RunLive(b, 2, 4, cfg, false); !errors.Is(err, emulator.ErrMachineConfig) {
			t.Errorf("%d-word blocks, goal options %v: err = %v, want ErrMachineConfig", c.block, c.opts.PerArea, err)
		}
	}
	for _, opts := range []cache.Options{cache.OptionsHeap(), cache.OptionsComm()} {
		cfg := BaseCache(opts)
		cfg.BlockWords, cfg.SizeWords = 32, 8192
		if _, _, err := RunLive(b, 2, 4, cfg, false); err != nil {
			t.Errorf("32-word blocks, options %v: %v", opts.PerArea, err)
		}
	}
}
