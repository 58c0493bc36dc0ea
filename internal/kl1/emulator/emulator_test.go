package emulator

import (
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
)

// testMachineConfig builds a small but realistic cluster configuration.
func testMachineConfig(pes int) machine.Config {
	return machine.Config{
		PEs: pes,
		Layout: mem.Layout{
			InstWords: 16 << 10,
			HeapWords: 512 << 10,
			GoalWords: 64 << 10,
			SuspWords: 16 << 10,
			CommWords: 4 << 10,
		},
		Cache: cache.Config{
			SizeWords: 1 << 10, BlockWords: 4, Ways: 4, LockEntries: 4,
			Options:  cache.OptionsAll(),
			Protocol: cache.ProtocolPIM,
			VerifyDW: true,
		},
		Timing: bus.DefaultTiming(),
	}
}

// run executes src on pes PEs and returns the result, failing the test on
// compile errors, program failure, or step-limit overrun.
func run(t *testing.T, src string, pes int) (*Cluster, Result) {
	t.Helper()
	cl, res, err := RunSource(src, testMachineConfig(pes), DefaultConfig(), 50_000_000)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if res.Failed {
		t.Fatalf("program failed: %s (output %q)", res.FailReason, res.Output)
	}
	if res.HitStepLimit {
		t.Fatalf("step limit hit; output so far %q", res.Output)
	}
	return cl, res
}

func TestHelloConstant(t *testing.T) {
	_, res := run(t, "main :- true | println(42).", 1)
	if res.Output != "42\n" {
		t.Errorf("output %q", res.Output)
	}
	if res.Emu.Reductions == 0 || res.Emu.Instructions == 0 {
		t.Error("no work recorded")
	}
}

func TestAtomAndStructOutput(t *testing.T) {
	_, res := run(t, `
main :- true | X = f(hello, [1,2], g(3)), println(X).
`, 1)
	if res.Output != "f(hello,[1,2],g(3))\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestClauseSelectionByConstant(t *testing.T) {
	_, res := run(t, `
main :- true | p(2, R), println(R).
p(1, R) :- true | R = one.
p(2, R) :- true | R = two.
p(3, R) :- true | R = three.
`, 1)
	if res.Output != "two\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestGuardComparisonSelection(t *testing.T) {
	_, res := run(t, `
main :- true | classify(-5, A), classify(0, B), classify(7, C),
               println(A), println(B), println(C).
classify(X, R) :- X < 0 | R = neg.
classify(X, R) :- X =:= 0 | R = zero.
classify(X, R) :- X > 0 | R = pos.
`, 1)
	if res.Output != "neg\nzero\npos\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestRecursionSum(t *testing.T) {
	// sum(N) = N + ... + 1 computed with an accumulator.
	_, res := run(t, `
main :- true | sum(100, 0, R), println(R).
sum(0, Acc, R) :- true | R = Acc.
sum(N, Acc, R) :- N > 0 | A1 := Acc + N, N1 := N - 1, sum(N1, A1, R).
`, 1)
	if res.Output != "5050\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestListAppendAndLength(t *testing.T) {
	_, res := run(t, `
main :- true | mklist(5, L), app(L, [9,8], M), len(M, 0, N), println(M), println(N).
mklist(0, L) :- true | L = [].
mklist(N, L) :- N > 0 | N1 := N - 1, L = [N|T], mklist(N1, T).
app([], Y, Z) :- true | Z = Y.
app([H|T], Y, Z) :- true | Z = [H|Z1], app(T, Y, Z1).
len([], Acc, N) :- true | N = Acc.
len([_|T], Acc, N) :- true | A1 := Acc + 1, len(T, A1, N).
`, 1)
	if res.Output != "[5,4,3,2,1,9,8]\n7\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestOtherwiseClause(t *testing.T) {
	_, res := run(t, `
main :- true | p(5, A), p(0, B), println(A), println(B).
p(0, R) :- true | R = zero.
p(X, R) :- otherwise | R = other.
`, 1)
	if res.Output != "other\nzero\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestNonlinearHead(t *testing.T) {
	_, res := run(t, `
main :- true | eq(3, 3, A), eq(3, 4, B), println(A), println(B).
eq(X, X, R) :- true | R = same.
eq(_, _, R) :- otherwise | R = diff.
`, 1)
	if res.Output != "same\ndiff\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestSuspensionProducerConsumer(t *testing.T) {
	// The consumer suspends on the unbound stream tail; the producer
	// resumes it. Stream AND-parallelism per Section 2.1.
	for _, pes := range []int{1, 2, 4} {
		_, res := run(t, `
main :- true | produce(10, S), consume(S, 0, R), println(R).
produce(0, S) :- true | S = [].
produce(N, S) :- N > 0 | S = [N|S1], N1 := N - 1, produce(N1, S1).
consume([], Acc, R) :- true | R = Acc.
consume([H|T], Acc, R) :- true | A1 := Acc + H, consume(T, A1, R).
`, pes)
		if res.Output != "55\n" {
			t.Errorf("%d PEs: output %q", pes, res.Output)
		}
		if res.Floating != 0 {
			t.Errorf("%d PEs: %d goals still floating", pes, res.Floating)
		}
	}
}

func TestSuspensionOnGuard(t *testing.T) {
	// p suspends in its guard until the producer binds X.
	_, res := run(t, `
main :- true | p(X, R), q(X), println(R).
p(X, R) :- X > 10 | R = big.
p(X, R) :- X =< 10 | R = small.
q(X) :- true | X = 42.
`, 2)
	if res.Output != "big\n" {
		t.Errorf("output %q", res.Output)
	}
	if res.Emu.Suspensions == 0 {
		t.Error("expected at least one suspension")
	}
	if res.Emu.Resumptions == 0 {
		t.Error("expected at least one resumption")
	}
}

func TestSpawnedArithmeticSuspends(t *testing.T) {
	// H comes from a stream, so Y := H*2 must spawn a suspending $arith.
	_, res := run(t, `
main :- true | gen(S), double(S, D), println(D).
gen(S) :- true | S = [1,2,3].
double([], D) :- true | D = [].
double([H|T], D) :- true | Y := H * 2, D = [Y|D1], double(T, D1).
`, 2)
	if res.Output != "[2,4,6]\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestParallelTreeSum(t *testing.T) {
	// Divide-and-conquer sum: spawns a tree of goals that load-balances
	// across PEs via the on-demand scheduler.
	src := `
main :- true | tsum(1, 64, R), println(R).
tsum(L, H, R) :- L =:= H | R = L.
tsum(L, H, R) :- L < H |
    M := (L + H) / 2, M1 := M + 1,
    tsum(L, M, A), tsum(M1, H, B), add(A, B, R).
add(A, B, R) :- wait(A), wait(B) | R := A + B.
`
	for _, pes := range []int{1, 2, 4, 8} {
		cl, res := run(t, src, pes)
		if res.Output != "2080\n" {
			t.Fatalf("%d PEs: output %q", pes, res.Output)
		}
		if pes > 1 && res.Emu.GoalsStolen == 0 {
			t.Errorf("%d PEs: no load balancing happened", pes)
		}
		// Coherence must hold over the goal area after the run.
		b := cl.Machine.Memory().Bounds()
		var addrs []word.Addr
		for a := b.GoalBase; a < b.GoalBase+4096; a += 4 {
			addrs = append(addrs, a)
		}
		if err := cl.Machine.CheckInvariants(addrs); err != nil {
			t.Fatalf("%d PEs: coherence: %v", pes, err)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	src := `
main :- true | tsum(1, 32, R), println(R).
tsum(L, H, R) :- L =:= H | R = L.
tsum(L, H, R) :- L < H |
    M := (L + H) / 2, M1 := M + 1,
    tsum(L, M, A), tsum(M1, H, B), add(A, B, R).
add(A, B, R) :- wait(A), wait(B) | R := A + B.
`
	_, res1 := run(t, src, 4)
	cl2, res2 := run(t, src, 4)
	if res1.Steps != res2.Steps || res1.Emu.Reductions != res2.Emu.Reductions {
		t.Errorf("nondeterministic: %+v vs %+v", res1.Emu, res2.Emu)
	}
	if cl2.Machine.BusStats().TotalCycles == 0 {
		t.Error("no bus traffic at all?")
	}
}

func TestProgramFailureReported(t *testing.T) {
	_, res, err := RunSource("main :- true | p(5).\np(0) :- true | true.",
		testMachineConfig(1), DefaultConfig(), 1_000_000)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if !res.Failed || !strings.Contains(res.FailReason, "no clause applies") {
		t.Errorf("result %+v", res)
	}
}

func TestUnificationFailureReported(t *testing.T) {
	_, res, err := RunSource("main :- true | X = 1, X = 2.",
		testMachineConfig(1), DefaultConfig(), 1_000_000)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if !res.Failed || !strings.Contains(res.FailReason, "unification failed") {
		t.Errorf("result %+v", res)
	}
}

func TestPerpetualSuspensionDetected(t *testing.T) {
	// q never binds X, so p floats forever: the run terminates with a
	// floating goal (program deadlock).
	_, res, err := RunSource(`
main :- true | p(X).
p(1) :- true | true.
`, testMachineConfig(1), DefaultConfig(), 1_000_000)
	if err != nil {
		t.Fatalf("RunSource: %v", err)
	}
	if res.Failed {
		t.Fatalf("unexpected failure %s", res.FailReason)
	}
	if res.Floating != 1 {
		t.Errorf("floating = %d, want 1", res.Floating)
	}
}

func TestStatsPlausibility(t *testing.T) {
	cl, res := run(t, `
main :- true | produce(50, S), consume(S, 0, R), println(R).
produce(0, S) :- true | S = [].
produce(N, S) :- N > 0 | S = [N|S1], N1 := N - 1, produce(N1, S1).
consume([], Acc, R) :- true | R = Acc.
consume([H|T], Acc, R) :- true | A1 := Acc + H, consume(T, A1, R).
`, 2)
	if res.Output != "1275\n" {
		t.Fatalf("output %q", res.Output)
	}
	cs := cl.Machine.CacheStats()
	// Instruction references must exist and dominate plausibly.
	if cs.RefsByArea(mem.AreaInst) == 0 {
		t.Error("no instruction fetches recorded")
	}
	if cs.RefsByArea(mem.AreaHeap) == 0 || cs.RefsByArea(mem.AreaGoal) == 0 {
		t.Error("missing heap/goal references")
	}
	if cs.RefsByOp(cache.OpLR) == 0 {
		t.Error("no lock operations (bindings must lock)")
	}
	if cs.RefsByOp(cache.OpDW) == 0 || cs.RefsByOp(cache.OpER) == 0 {
		t.Error("optimized commands never issued")
	}
	// Every lock acquired was released.
	for i := 0; i < 2; i++ {
		if cl.Machine.Cache(i).LocksInUse() != 0 {
			t.Errorf("PE %d leaked %d locks", i, cl.Machine.Cache(i).LocksInUse())
		}
	}
}

func TestCoherenceAfterRun(t *testing.T) {
	cl, _ := run(t, `
main :- true | tsum(1, 40, R), println(R).
tsum(L, H, R) :- L =:= H | R = L.
tsum(L, H, R) :- L < H |
    M := (L + H) / 2, M1 := M + 1,
    tsum(L, M, A), tsum(M1, H, B), add(A, B, R).
add(A, B, R) :- wait(A), wait(B) | R := A + B.
`, 4)
	b := cl.Machine.Memory().Bounds()
	var addrs []word.Addr
	for a := b.HeapBase; a < b.HeapBase+8192; a += 4 {
		addrs = append(addrs, a)
	}
	for a := b.GoalBase; a < b.GoalBase+4096; a += 4 {
		addrs = append(addrs, a)
	}
	for a := b.CommBase; a < b.End; a += 4 {
		addrs = append(addrs, a)
	}
	if err := cl.Machine.CheckInvariants(addrs); err != nil {
		t.Errorf("coherence: %v", err)
	}
}
