// Command pimreport diffs, aggregates and gates run manifests — the
// analysis half of the simulator's self-observability layer
// (internal/obs). Every replay-capable command emits a manifest with
// -manifest out.json; pimreport turns piles of them into verdicts:
//
//	pimreport diff a.json b.json              # field-level comparison
//	pimreport median -o base.json run*.json   # merge repeats (baselines)
//	pimreport check -baseline docs/baselines -tolerance 20% run*.json
//	pimreport table docs/baselines/*.json     # eval_snapshot table
//
// check is CI's perf-regression gate: per scenario, the median run
// throughput must reach baseline*(1-tolerance), and the deterministic
// cache/bus statistics must equal the baseline's bit for bit — any
// stat mismatch between same-config manifests is a determinism
// violation and a hard error regardless of tolerance.
//
// A malformed command line exits 2; a stats mismatch, a failed gate or
// an unreadable manifest exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pimcache/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "diff":
		diff(os.Args[2:])
	case "median":
		median(os.Args[2:])
	case "check":
		check(os.Args[2:])
	case "table":
		table(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pimreport {diff|median|check|table} [flags] manifests...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pimreport:", err)
	os.Exit(1)
}

// badUsage refuses a malformed command line.
func badUsage(err error) {
	fmt.Fprintln(os.Stderr, "pimreport:", err)
	os.Exit(2)
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		badUsage(fmt.Errorf("diff: want exactly two manifests, got %d", fs.NArg()))
	}
	ms, err := report.Load(fs.Args())
	if err != nil {
		fatal(err)
	}
	d, err := report.DiffManifests(ms[0], ms[1])
	if err != nil {
		fatal(err)
	}
	fmt.Print(d.Format(fs.Arg(0), fs.Arg(1)))
	if !d.OK() {
		os.Exit(1)
	}
}

func median(args []string) {
	fs := flag.NewFlagSet("median", flag.ExitOnError)
	out := fs.String("o", "-", "output manifest path (- for stdout)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		badUsage(fmt.Errorf("median: no input manifests"))
	}
	ms, err := report.Load(fs.Args())
	if err != nil {
		fatal(err)
	}
	med, err := report.MedianManifest(ms)
	if err != nil {
		fatal(err)
	}
	if err := report.WriteManifest(med, *out); err != nil {
		fatal(err)
	}
}

func check(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	baseDir := fs.String("baseline", "docs/baselines", "directory of baseline manifests")
	tolStr := fs.String("tolerance", "20%", "allowed throughput regression (e.g. 20%)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		badUsage(fmt.Errorf("check: no run manifests"))
	}
	tol, err := parseTolerance(*tolStr)
	if err != nil {
		badUsage(err)
	}
	baselines, err := report.LoadDir(*baseDir)
	if err != nil {
		fatal(err)
	}
	runs, err := report.Load(fs.Args())
	if err != nil {
		fatal(err)
	}
	res, err := report.Check(baselines, runs, tol)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.Format())
	if !res.OK() {
		os.Exit(1)
	}
}

func table(args []string) {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		badUsage(fmt.Errorf("table: no input manifests"))
	}
	ms, err := report.Load(fs.Args())
	if err != nil {
		fatal(err)
	}
	fmt.Print(report.Table(ms))
}

// parseTolerance accepts "20%", "20", or "0.2": a bare value of 1 or
// more is a percentage.
func parseTolerance(s string) (float64, error) {
	num := strings.TrimSpace(s)
	pct := strings.HasSuffix(num, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(num, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("tolerance %q: %w", s, err)
	}
	if pct || v >= 1 {
		v /= 100
	}
	if v < 0 || v >= 1 {
		return 0, fmt.Errorf("tolerance %q out of range", s)
	}
	return v, nil
}
