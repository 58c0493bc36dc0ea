package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The tests drive the real command: with pimreportAsCommand set in its
// environment, the test binary runs main instead of the tests, so each
// test re-executes it with a pimreport command line and checks the exit
// status and the output.
const pimreportAsCommand = "PIMREPORT_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(pimreportAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pimreport runs the command and returns its stdout, stderr and exit
// status.
func pimreport(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), pimreportAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("pimreport %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// baseline returns the absolute path of a committed baseline manifest.
func baseline(t *testing.T, name string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join("..", "..", "docs", "baselines", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMalformedCommandLineExit2: a malformed command line exits 2, not
// the 1 that CI reads as a stats mismatch or a failed gate.
func TestMalformedCommandLineExit2(t *testing.T) {
	m := baseline(t, "replay-stream-1pe.json")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"diff", m}, "diff: want exactly two manifests, got 1"},
		{[]string{"median"}, "median: no input manifests"},
		{[]string{"table"}, "table: no input manifests"},
		{[]string{"check"}, "check: no run manifests"},
		{[]string{"check", "-tolerance", "abc", m}, `tolerance "abc"`},
		{[]string{"check", "-tolerance", "100%", m}, `tolerance "100%" out of range`},
		{[]string{"nope"}, "usage: pimreport"},
	} {
		stdout, stderr, code := pimreport(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("pimreport %v: exit %d, stdout %q, stderr %q; want exit 2 with %q",
				c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestDiffExitStatus: diff exits 0 on identical statistics and 1 when
// two manifests of one simulated outcome disagree.
func TestDiffExitStatus(t *testing.T) {
	m := baseline(t, "replay-stream-1pe.json")
	if stdout, stderr, code := pimreport(t, "diff", m, m); code != 0 || !strings.Contains(stdout, "stats: identical") {
		t.Errorf("diff of a manifest with itself: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	b, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	const ratio = `"miss_ratio": 0.27641208538187195`
	if !bytes.Contains(b, []byte(ratio)) {
		t.Fatalf("%s has no %s", m, ratio)
	}
	other := filepath.Join(t.TempDir(), "other.json")
	b = bytes.Replace(b, []byte(ratio), []byte(`"miss_ratio": 0.5`), 1)
	if err := os.WriteFile(other, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if stdout, stderr, code := pimreport(t, "diff", m, other); code != 1 || !strings.Contains(stdout, "DETERMINISM VIOLATION") {
		t.Errorf("diff of differing manifests: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

func TestParseTolerance(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"20%", 0.2, true},
		{"20", 0.2, true},
		{"0.2", 0.2, true},
		{" 5% ", 0.05, true},
		{"0", 0, true},
		{"1", 0.01, true},
		{"2", 0.02, true},
		{"1%", 0.01, true},
		{"99.5", 0.995, true},
		{"100", 0, false},
		{"100%", 0, false},
		{"-5", 0, false},
		{"abc", 0, false},
		{"", 0, false},
	} {
		got, err := parseTolerance(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseTolerance(%q) = %v, %v; want %v (ok %v)", c.in, got, err, c.want, c.ok)
		}
	}
}
