package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests drive the real command: with pimbenchAsCommand set in its
// environment, the test binary runs main instead of the tests, so each
// test re-executes it with a pimbench command line and checks the exit
// status and the output.
const pimbenchAsCommand = "PIMBENCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(pimbenchAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pimbench runs the command and returns its stdout, stderr and exit
// status.
func pimbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), pimbenchAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("pimbench %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestMalformedFlagsExit2: every malformed flag is refused before the
// evaluation starts, with exit 2 and a message naming the flag.
func TestMalformedFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-bench", "Nope"}, `unknown -bench "Nope"`},
		{[]string{"-quick", "-bench", "Tri,Nope", "-table", "1"}, `unknown -bench "Nope"`},
		{[]string{"-quick", "-table", "9"}, "-table must be 1-5 (got 9)"},
		{[]string{"-quick", "-jobs", "-1"}, "-jobs must be non-negative (got -1)"},
		{[]string{"-quick", "-bench", "Pascal", "-table", "1", "-timeout", "-1s"}, "-timeout must be non-negative (got -1s)"},
	} {
		stdout, stderr, code := pimbench(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("pimbench %v: exit %d, stdout %q, stderr %q; want exit 2 with %q", c.args, code, stdout, stderr, c.want)
		}
	}
}
