package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one child process, so a hung pass fails instead of
// stalling the run past its time limit.
const childTimeout = 120 * time.Second

// env locates the source tree, the built tools and the work directory.
type env struct {
	ctx   context.Context // ends every child when canceled
	root  string          // repository root (holds go.mod and cmd/)
	bin   string          // built pimtrace and pimbench
	work  string          // per-run work files: traces and manifests
	procs int             // GOMAXPROCS for this process and every child
}

func newEnv(ctx context.Context, root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	e := &env{
		ctx:   ctx,
		root:  root,
		bin:   filepath.Join(out, "bin"),
		work:  filepath.Join(out, "work"),
		procs: min(runtime.NumCPU(), 2),
	}
	runtime.GOMAXPROCS(e.procs)
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles the commands under test from source. Its time is part
// of no metric.
func (e *env) build() error {
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/pimtrace", "./cmd/pimbench")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the commands: %v\n%s", err, out)
	}
	return nil
}

func (e *env) testdata(name string) string {
	return filepath.Join(e.root, "benchmark", "testdata", name)
}

// execResult is one finished child process.
type execResult struct {
	wall   time.Duration // exec to exit
	rssMB  float64       // peak resident set (wait4 rusage)
	stdout []byte
}

// run executes one built tool to completion under the benchmark's
// GOMAXPROCS. A non-zero exit or a timeout is an error.
func (e *env) run(tool string, args ...string) (execResult, error) {
	ctx, cancel := context.WithTimeout(e.ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, tool), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.procs))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	res := execResult{wall: time.Since(t0), stdout: stdout.Bytes()}
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("timed out after %v", childTimeout)
		}
		return res, fmt.Errorf("%s %v: %v: %s", tool, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// simStats are the simulated statistics the correctness gate compares:
// named fields rather than a digest of the whole stats struct, so a new
// counter does not trip the gate.
type simStats struct {
	Refs           uint64   `json:"refs"`
	TotalCycles    uint64   `json:"total_cycles"`
	MemBusyCycles  uint64   `json:"mem_busy_cycles"`
	CyclesByArea   []uint64 `json:"cycles_by_area"`
	CountByPattern []uint64 `json:"count_by_pattern"`
	Misses         uint64   `json:"misses"`

	// Lookups and lock-read counts feed the traced run's model ratios;
	// they are not gated.
	Lookups, LRHits, LRTotal uint64 `json:"-"`
}

// trimZeros drops trailing zero counters, so a new (unused) area or bus
// pattern slot compares equal.
func trimZeros(v []uint64) []uint64 {
	for len(v) > 0 && v[len(v)-1] == 0 {
		v = v[:len(v)-1]
	}
	return v
}

func (s simStats) equal(o simStats) bool {
	return s.Refs == o.Refs && s.TotalCycles == o.TotalCycles &&
		s.MemBusyCycles == o.MemBusyCycles && s.Misses == o.Misses &&
		slices.Equal(trimZeros(s.CyclesByArea), trimZeros(o.CyclesByArea)) &&
		slices.Equal(trimZeros(s.CountByPattern), trimZeros(o.CountByPattern))
}

func (s simStats) String() string {
	b, _ := json.Marshal(s)
	return string(b)
}

// readManifestStats extracts simStats from a `pimtrace replay -manifest`
// file.
func readManifestStats(path string) (simStats, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return simStats{}, err
	}
	var m struct {
		Stats *struct {
			Refs  uint64 `json:"refs"`
			Cache struct {
				Misses []uint64
			} `json:"cache"`
			Bus struct {
				TotalCycles    uint64
				MemBusyCycles  uint64
				CyclesByArea   []uint64
				CountByPattern []uint64
			} `json:"bus"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return simStats{}, fmt.Errorf("manifest %s: %w", path, err)
	}
	if m.Stats == nil {
		return simStats{}, fmt.Errorf("manifest %s: no stats section", path)
	}
	s := simStats{
		Refs:           m.Stats.Refs,
		TotalCycles:    m.Stats.Bus.TotalCycles,
		MemBusyCycles:  m.Stats.Bus.MemBusyCycles,
		CyclesByArea:   m.Stats.Bus.CyclesByArea,
		CountByPattern: m.Stats.Bus.CountByPattern,
	}
	for _, n := range m.Stats.Cache.Misses {
		s.Misses += n
	}
	return s, nil
}

// expectation is a workload's committed reference output.
type expectation struct {
	// Seed the input stats hold for; 0 when the inputs ignore the seed.
	Seed int64 `json:"seed,omitempty"`
	// Inputs are the stats of replaying each input under the workload's
	// protocol.
	Inputs []simStats `json:"inputs"`
	// Refs is the number of references one evaluation run simulates
	// (live runs plus replays); evaluation workloads only.
	Refs uint64 `json:"refs,omitempty"`
}

const expectedFile = "expected.json"

func (e *env) loadExpected() (map[string]expectation, error) {
	exp := map[string]expectation{}
	b, err := os.ReadFile(e.testdata(expectedFile))
	if errors.Is(err, fs.ErrNotExist) {
		return exp, nil // nothing blessed yet
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	return exp, nil
}

// checker holds the reference each pass is compared with: the committed
// stats when they apply to this seed, otherwise the first pass observed.
type checker struct {
	want   []simStats
	source string
}

func newChecker(exp expectation, ok bool, w workload, seed int64) *checker {
	if ok && len(exp.Inputs) == len(w.Inputs) && (!w.seeded() || exp.Seed == seed) {
		return &checker{want: exp.Inputs, source: expectedFile}
	}
	return &checker{source: "the first pass"}
}

// check compares one pass's per-input stats with the reference.
func (c *checker) check(got []simStats, w workload) error {
	if c.want == nil {
		c.want = got
		return nil
	}
	for i, s := range got {
		if !s.equal(c.want[i]) {
			return fmt.Errorf("%s input %s: stats %v differ from %s %v",
				w.Name, w.Inputs[i].name(), s, c.source, c.want[i])
		}
	}
	return nil
}

// goldenFile names the file holding the evaluation's expected stdout.
func goldenFile(key string) string { return strings.ReplaceAll(key, "/", "-") + ".golden" }

// checkGolden compares pimbench's stdout with the workload's golden file.
func (e *env) checkGolden(w workload, stdout []byte) error {
	golden, err := os.ReadFile(e.testdata(goldenFile(w.Key)))
	if err != nil {
		return err
	}
	if !bytes.Equal(stdout, golden) {
		return fmt.Errorf("pimbench output differs from %s", goldenFile(w.Key))
	}
	return nil
}

// bless rewrites testdata from traced runs' observations.
func (e *env) bless(results []*result, exp map[string]expectation) error {
	for _, r := range results {
		if r.Failed > 0 {
			return fmt.Errorf("%s failed; nothing blessed", r.Workload)
		}
		exp[r.key] = r.observed
		if r.golden != nil {
			if err := os.WriteFile(e.testdata(goldenFile(r.key)), r.golden, 0o644); err != nil {
				return err
			}
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.testdata(expectedFile), append(b, '\n'), 0o644)
}
