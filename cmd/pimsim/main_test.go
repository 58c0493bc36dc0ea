package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The tests drive the real command: with pimsimAsCommand set in its
// environment, the test binary runs main instead of the tests, so each
// test re-executes it with a pimsim command line and checks the exit
// status, the output and the files written.
const pimsimAsCommand = "PIMSIM_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(pimsimAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pimsim runs the command in dir and returns its stdout, stderr and exit
// status.
func pimsim(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), pimsimAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("pimsim %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestEventsTimeline pins the -events file: a run writes a valid JSON
// timeline and nothing else, and a refused run (goal-area commands at
// 32-word blocks, exit 2) leaves no file where there was none and an
// earlier timeline byte for byte.
func TestEventsTimeline(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := pimsim(t, dir, "-bench", "Tri", "-scale", "3", "-pes", "2", "-events", "x.json")
	if code != 0 || !strings.Contains(stdout, "wrote x.json") {
		t.Fatalf("run exited %d, stdout %q, stderr %q; want exit 0 writing x.json", code, stdout, stderr)
	}
	good, err := os.ReadFile(filepath.Join(dir, "x.json"))
	if err != nil || !json.Valid(good) {
		t.Fatalf("x.json is not a JSON timeline (%v)", err)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"x.json"}) {
		t.Errorf("run left %v, want only x.json", got)
	}

	refused := func(dir string) {
		t.Helper()
		_, stderr, code := pimsim(t, dir, "-bench", "Tri", "-scale", "3", "-block", "32", "-opts", "goal", "-events", "x.json")
		if code != 2 {
			t.Fatalf("goal-area commands at 32-word blocks: exit %d, stderr %q; want exit 2", code, stderr)
		}
	}
	refused(dir)
	if got, err := os.ReadFile(filepath.Join(dir, "x.json")); err != nil || !bytes.Equal(got, good) {
		t.Errorf("refused run changed the earlier x.json (%d bytes, %v)", len(got), err)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"x.json"}) {
		t.Errorf("refused run left %v, want only x.json", got)
	}

	empty := t.TempDir()
	refused(empty)
	if got := dirNames(t, empty); len(got) != 0 {
		t.Errorf("refused run left %v, want no file", got)
	}
}

// TestMalformedFlagsExit2: a negative -timeout and an unknown -bench are
// malformed command lines (exit 2, naming the flag or the name), refused
// before anything runs.
func TestMalformedFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "Tri", "-scale", "2", "-timeout", "-1s"}, "-timeout must be non-negative (got -1s)"},
		{[]string{"-bench", "Nope"}, `"Nope"`},
	} {
		stdout, stderr, code := pimsim(t, t.TempDir(), c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("pimsim %v: exit %d, stdout %q, stderr %q; want exit 2 with %q", c.args, code, stdout, stderr, c.want)
		}
	}
}
