package pimcache

import (
	"errors"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/emulator"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.PEs = 2
	cfg.HeapWords = 1 << 20
	return cfg
}

func TestRunHello(t *testing.T) {
	res, err := Run("main :- true | println(hello).", smallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Output != "hello\n" {
		t.Errorf("result %+v", res)
	}
	if res.Reductions == 0 || res.MemoryRefs == 0 {
		t.Error("no work metered")
	}
}

func TestRunParseError(t *testing.T) {
	if _, err := Run("main :- |", smallConfig(), 0); err == nil {
		t.Error("parse error not reported")
	}
}

func TestRunProgramFailure(t *testing.T) {
	res, err := Run("main :- true | X = 1, X = 2.", smallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailReason == "" {
		t.Errorf("failure not surfaced: %+v", res)
	}
}

func TestRunDeadlockSurfaced(t *testing.T) {
	res, err := Run("main :- true | p(X).\np(1) :- true | true.", smallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Error("suspended goal not reported as deadlock")
	}
}

func TestRunBenchmarkVerifies(t *testing.T) {
	res, err := RunBenchmark("Puzzle", 2, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "11\n" { // 3x4 board has 11 domino tilings
		t.Errorf("output %q", res.Output)
	}
	if res.BusCycles == 0 || res.MissRatio <= 0 {
		t.Errorf("metrics missing: %+v", res)
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", 0, smallConfig()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestGoalOptsAtLargeBlocksRefused: the facade returns the runtime's
// refusal of goal-area optimized commands at blocks larger than a goal
// record, for programs and benchmarks alike (the benchmark run used to
// panic).
func TestGoalOptsAtLargeBlocksRefused(t *testing.T) {
	cfg := smallConfig()
	cfg.BlockWords, cfg.Optimizations = 32, "goal"
	if _, err := RunBenchmark("Tri", 2, cfg); !errors.Is(err, emulator.ErrMachineConfig) {
		t.Errorf("RunBenchmark: err = %v, want ErrMachineConfig", err)
	}
	if _, err := Run("main :- true | true.", cfg, 0); !errors.Is(err, emulator.ErrMachineConfig) {
		t.Errorf("Run: err = %v, want ErrMachineConfig", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Optimizations = "bogus"
	if _, err := Run("main :- true | true.", cfg, 0); err == nil {
		t.Error("bad optimization set accepted")
	}
	cfg = smallConfig()
	cfg.Protocol = "mesi"
	if _, err := Run("main :- true | true.", cfg, 0); err == nil {
		t.Error("bad protocol accepted")
	}
	cfg = smallConfig()
	cfg.BlockWords = 3
	if _, err := Run("main :- true | true.", cfg, 0); err == nil {
		t.Error("bad geometry accepted")
	}

	// A machine the simulator cannot build is refused with
	// ErrMachineConfig by programs and benchmarks alike; these used to
	// panic (and a benchmark used to ignore HeapWords).
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"65 PEs", func(c *Config) { c.PEs = 65 }},
		{"-1 PEs", func(c *Config) { c.PEs = -1 }},
		{"bus width -1", func(c *Config) { c.BusWidthWords = -1 }},
		{"memory cycles -8", func(c *Config) { c.MemCycles = -8 }},
		{"heap -5 words", func(c *Config) { c.HeapWords = -5 }},
	} {
		cfg := smallConfig()
		c.set(&cfg)
		t.Run("Run/"+c.name, func(t *testing.T) {
			if _, err := Run("main :- true | true.", cfg, 0); !errors.Is(err, emulator.ErrMachineConfig) {
				t.Errorf("err = %v, want ErrMachineConfig", err)
			}
		})
		t.Run("RunBenchmark/"+c.name, func(t *testing.T) {
			if _, err := RunBenchmark("Tri", 2, cfg); !errors.Is(err, emulator.ErrMachineConfig) {
				t.Errorf("err = %v, want ErrMachineConfig", err)
			}
		})
	}

	// A benchmark runs on the heap HeapWords sizes: Tri at scale 2 needs
	// more than 256 words of it.
	t.Run("RunBenchmark/heap 256 words", func(t *testing.T) {
		cfg := smallConfig()
		cfg.HeapWords = 256
		if _, err := RunBenchmark("Tri", 2, cfg); err == nil || !strings.Contains(err.Error(), "heap exhausted") {
			t.Errorf("err = %v, want the run to exhaust its 256-word heap", err)
		}
	})
}

func TestOptimizationsReduceTraffic(t *testing.T) {
	src := `
main :- true | mk(200, L), sum(L, 0, S), println(S).
mk(0, L) :- true | L = [].
mk(N, L) :- N > 0 | L = [N|T], N1 := N - 1, mk(N1, T).
sum([], A, S) :- true | S = A.
sum([H|T], A, S) :- true | A1 := A + H, sum(T, A1, S).
`
	all := smallConfig()
	none := smallConfig()
	none.Optimizations = "none"
	ra, err := Run(src, all, 0)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := Run(src, none, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Output != "20100\n" || rn.Output != ra.Output {
		t.Fatalf("outputs %q / %q", ra.Output, rn.Output)
	}
	if ra.BusCycles >= rn.BusCycles {
		t.Errorf("optimizations did not help: all=%d none=%d", ra.BusCycles, rn.BusCycles)
	}
}

func TestIllinoisProtocolOption(t *testing.T) {
	cfg := smallConfig()
	cfg.Protocol = "illinois"
	res, err := Run("main :- true | println(ok).", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "ok\n" {
		t.Errorf("output %q", res.Output)
	}
}

// TestEveryRegisteredProtocolRuns checks the facade accepts every name
// in the cache package's protocol registry and produces the same program
// output under each — new protocols are reachable from the public API
// the moment they register.
func TestEveryRegisteredProtocolRuns(t *testing.T) {
	for _, p := range cache.Protocols() {
		name := p.String()
		cfg := smallConfig()
		cfg.Protocol = name
		res, err := Run("main :- true | println(ok).", cfg, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.Output != "ok\n" {
			t.Errorf("%s: output %q", name, res.Output)
		}
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	want := []string{"Tri", "Semi", "Puzzle", "Pascal"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestEvaluationQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick evaluation takes ~10s")
	}
	out, err := Evaluation(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 1a", "Figure 2b", "Figure 3", "Illinois"} {
		if !strings.Contains(out, frag) {
			t.Errorf("evaluation output missing %q", frag)
		}
	}
}

func TestDisassemble(t *testing.T) {
	asm, err := Disassemble(`
main :- true | p(3, R), println(R).
p(N, R) :- N > 0 | R := N * 2.
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"main/0:", "p/2:", "try", "guard", "arith", "spawn"} {
		if !strings.Contains(asm, frag) {
			t.Errorf("disassembly missing %q", frag)
		}
	}
	if _, err := Disassemble("p :- |"); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := Disassemble("main :- true | ghost(1)."); err == nil {
		t.Error("compile error not surfaced")
	}
}

func TestRunBenchmarkExtras(t *testing.T) {
	cfg := smallConfig()
	for name, scale := range map[string]int{"BUP": 5, "PuzzleVec": 2} {
		res, err := RunBenchmark(name, scale, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Output == "" || res.BusCycles == 0 {
			t.Errorf("%s: empty result %+v", name, res)
		}
	}
}

func TestRunWithGC(t *testing.T) {
	cfg := smallConfig()
	cfg.HeapWords = 8 << 10
	cfg.EnableGC = true
	res, err := Run(`
main :- true | loop(30, 0, R), println(R).
loop(0, A, R) :- true | R = A.
loop(N, A, R) :- N > 0 | mk(20, L), s(L, 0, S), nx(S, N, A, R).
nx(S, N, A, R) :- wait(S) | A1 := A + S, N1 := N - 1, loop(N1, A1, R).
mk(0, L) :- true | L = [].
mk(N, L) :- N > 0 | L = [N|T], N1 := N - 1, mk(N1, T).
s([], A, S) :- true | S = A.
s([H|T], A, S) :- true | A1 := A + H, s(T, A1, S).
`, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed || res.Output != "6300\n" {
		t.Errorf("result %+v", res)
	}
}

func TestVectorsViaFacade(t *testing.T) {
	res, err := Run(`
main :- true | new_vector(3, V),
               set_vector_element(V, 1, 5, W),
               vector_element(W, 1, E), show(E).
show(E) :- integer(E) | println(E).
`, smallConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "5\n" {
		t.Errorf("output %q", res.Output)
	}
}
