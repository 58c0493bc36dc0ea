// Command benchmark measures the simulator the way its users run it.
//
// It builds cmd/pimtrace and cmd/pimbench from source, prepares each
// workload's inputs from a seed, runs the workload as the real command
// line in a closed loop with one client (the next pass starts when the
// previous one exits), checks every output, and prints every metric as
// `workload metric value unit (n=…)`. The last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics.
//
// With -trace 1 it instead drives the same inputs in-process through
// the layers' public functions and prints the per-layer split; see
// traced.go and README.md.
//
// From the repository root:
//
//	bash benchmark/run.sh -workload replay-or8 -seed 1 -seconds 25 -trace 0
//
// or from this directory, every workload in turn:
//
//	go run . -seed 1 -out bench.json
//	go run . -seed 1 -trace 1 -spans spans.json -out layers.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// opts are the settings of one benchmark run.
type opts struct {
	seed    int64
	seconds float64
	smoke   bool
	bless   bool
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	// Extra are numbers that explain the metrics but are not gated.
	Extra []metric `json:"extra,omitempty"`

	// What a traced run observed, for -bless.
	key      string
	observed expectation
	golden   []byte
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *result) note(name string, v float64, unit string, n int) {
	r.Extra = append(r.Extra, metric{name, v, unit, n})
}

// op records one attempted operation and whether it failed.
func (r *result) op(err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", r.Workload, err)
	}
	return err == nil
}

func main() {
	var (
		root     = flag.String("root", "", "repository root (default: the parent of this directory, or . when it holds cmd/pimtrace)")
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the synthetic inputs are generated from")
		seconds  = flag.Float64("seconds", 25, "how long the measured passes of one workload run")
		traced   = flag.Int("trace", 0, "1 runs the traced in-process layer split instead of the end-to-end measurement")
		outPath  = flag.String("out", "", "also write every result, extra numbers included, to this JSON file")
		spanPath = flag.String("spans", "", "with -trace 1, write the recorded spans to this file as Chrome trace-event JSON")
		smoke    = flag.Bool("smoke", false, "shrink every workload to about 200k references")
		bless    = flag.Bool("bless", false, "with -trace 1 and -seed 1, rewrite testdata from this run's outputs instead of checking them")
	)
	flag.Parse()
	// An interrupt kills the running child, which is then reaped, and
	// ends the run without a result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *root, *name, *traced == 1, *outPath, *spanPath, opts{*seed, *seconds, *smoke, *bless})
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, root, name string, traced bool, outPath, spanPath string, o opts) error {
	if o.bless && (!traced || o.seed != 1) {
		return fmt.Errorf("-bless needs -trace 1 and -seed 1")
	}
	if root == "" {
		root = ".."
		if _, err := os.Stat(filepath.Join("cmd", "pimtrace")); err == nil {
			root = "."
		}
	}
	e, err := newEnv(ctx, root)
	if err != nil {
		return err
	}
	var sel []workload
	for _, w := range workloads(o.smoke) {
		if name == "all" || name == w.Name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := e.build(); err != nil {
		return err
	}
	exp, err := e.loadExpected()
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	tr := newTracer()
	var results []*result
	for _, w := range sel {
		if err := os.RemoveAll(e.work); err != nil {
			return err
		}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return err
		}
		var r *result
		if traced {
			r, err = runTraced(e, w, o, exp, tr)
		} else {
			r, err = runCLI(e, w, o, exp)
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		results = append(results, r)
		for _, m := range append(r.Metrics, r.Extra...) {
			fmt.Printf("%s %s %.6g %s (n=%d)\n", w.Name, m.Name, m.Value, m.Unit, m.N)
		}
	}
	if o.bless {
		if err := e.bless(results, exp); err != nil {
			return err
		}
	}
	if spanPath != "" {
		if err := tr.writeChrome(spanPath); err != nil {
			return err
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(map[string]any{
			"seed": o.seed, "seconds": o.seconds, "trace": traced, "smoke": o.smoke,
			"gomaxprocs": e.procs, "nproc": runtime.NumCPU(), "results": results,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("# gomaxprocs=%d nproc=%d\n", e.procs, runtime.NumCPU())
	return printSummary(results)
}

// printSummary writes the final JSON line. With one workload the metric
// names are bare; with several they are prefixed by the workload.
func printSummary(results []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "/" + m.Name
			}
			out.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runCLI is the end-to-end measurement: set-up, one untimed warm-up
// pass, then passes until o.seconds is spent.
func runCLI(e *env, w workload, o opts, exp map[string]expectation) (*result, error) {
	r := &result{Workload: w.Name}
	want, ok := exp[w.Key]
	chk := newChecker(want, ok, w, o.seed)

	paths, setup, err := setupCLI(e, w, o.seed, r, chk)
	if err != nil {
		return nil, err
	}
	r.add("setup_s", median(setup), "s", len(setup))

	var refs float64
	var pass func() (execResult, error)
	if w.Eval != nil {
		if want.Refs == 0 {
			return nil, fmt.Errorf("%s has no evaluation reference count", expectedFile)
		}
		refs = float64(want.Refs)
		// No warm-up: pimbench reads no input file, so there is nothing
		// to bring into the page cache, and a warm-up would cost a whole
		// evaluation.
		pass = func() (execResult, error) {
			res, err := e.run("pimbench", w.Eval.args()...)
			if err == nil {
				err = e.checkGolden(w, res.stdout)
			}
			return res, err
		}
	} else {
		// The warm-up pass brings the trace into the page cache, and
		// becomes the reference when no committed stats apply.
		pass = func() (execResult, error) { return replayCLI(e, w, paths, chk) }
		if !r.op(ignore(pass())) {
			return r, nil
		}
		for _, s := range chk.want {
			refs += float64(s.Refs)
		}
	}

	var rate, rss []float64
	var walls []time.Duration
	start := time.Now()
	for {
		res, err := pass()
		if r.op(err) {
			rate = append(rate, refs/res.wall.Seconds()/1e6)
			rss = append(rss, res.rssMB)
		}
		walls = append(walls, res.wall)
		// Start another pass only if it should end in time.
		if time.Since(start)+medianDur(walls) > time.Duration(o.seconds*float64(time.Second)) || e.ctx.Err() != nil {
			break
		}
	}
	if len(rate) == 0 {
		return r, nil
	}
	// Contention from other tenants of the host only ever slows a pass,
	// so the fast tail tracks the code's own speed more steadily than the
	// median, which is printed beside it.
	r.add("mrefs_per_s_p90", percentile(rate, 0.9), "Mrefs/s", len(rate))
	r.add("peak_rss_mb", median(rss), "MB", len(rss))
	r.note("mrefs_per_s", median(rate), "Mrefs/s", len(rate))
	r.note("pass_s", medianDur(walls).Seconds(), "s", len(walls))
	r.note("error_rate", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	return r, nil
}

func ignore(_ execResult, err error) error { return err }

// setupCLI prepares the workload's inputs w.SetupReps times with
// pimtrace and returns the input paths and each preparation's time.
func setupCLI(e *env, w workload, seed int64, r *result, chk *checker) ([]string, []float64, error) {
	paths := inputPaths(e, w)
	var times []float64
	for rep := 0; rep < w.SetupReps; rep++ {
		var total time.Duration
		var err error
		for i, in := range w.Inputs {
			var res execResult
			res, err = e.run("pimtrace", in.args(seed, paths[i])...)
			if err == nil {
				err = checkRefCount(res.stdout, in, i, chk)
			}
			if err != nil {
				break
			}
			total += res.wall
		}
		if r.op(err) {
			times = append(times, total.Seconds())
		}
	}
	if len(times) == 0 {
		return nil, nil, fmt.Errorf("every set-up failed: %s", strings.Join(r.Errors, "; "))
	}
	return paths, times, nil
}

func inputPaths(e *env, w workload) []string {
	var paths []string
	for _, in := range w.Inputs {
		paths = append(paths, filepath.Join(e.work, in.name()+".trc"))
	}
	return paths
}

// checkRefCount checks the reference count pimtrace synth/record
// reports against the reference stats, when there are any.
func checkRefCount(stdout []byte, in input, i int, chk *checker) error {
	var n uint64
	f := strings.Fields(string(stdout))
	if len(f) < 2 {
		return fmt.Errorf("pimtrace %s: unexpected output %q", in.name(), stdout)
	}
	if _, err := fmt.Sscan(f[1], &n); err != nil {
		return fmt.Errorf("pimtrace %s: unexpected output %q", in.name(), stdout)
	}
	if chk.want != nil && n != chk.want[i].Refs {
		return fmt.Errorf("pimtrace %s wrote %d references, want %d", in.name(), n, chk.want[i].Refs)
	}
	return nil
}

// replayCLI is one replay pass: `pimtrace replay` over every input, each
// writing a manifest whose stats are checked. The wall time is the sum
// and the peak RSS the largest of the invocations.
func replayCLI(e *env, w workload, paths []string, chk *checker) (execResult, error) {
	var pass execResult
	var got []simStats
	for _, p := range paths {
		man := p + ".json"
		res, err := e.run("pimtrace", "replay", "-protocol", w.Protocol, "-manifest", man, p)
		pass.wall += res.wall
		pass.rssMB = max(pass.rssMB, res.rssMB)
		if err != nil {
			return pass, err
		}
		s, err := readManifestStats(man)
		if err != nil {
			return pass, err
		}
		got = append(got, s)
	}
	return pass, chk.check(got, w)
}

// percentile interpolates linearly between the closest ranks, as
// numpy's default does; q is in [0, 1].
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func medianDur(v []time.Duration) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(median(f))
}
