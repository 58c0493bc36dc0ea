package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests drive the real command: with fghcAsCommand set in its
// environment, the test binary runs main instead of the tests, so each
// test re-executes it with an fghc command line and checks the exit
// status and the output.
const fghcAsCommand = "FGHC_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(fghcAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fghc runs the command with stdin as its input and returns its stdout,
// stderr and exit status.
func fghc(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), fghcAsCommand+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("fghc %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

const hello = "main :- true | println(hi).\n"

func TestRunsProgramFromStdin(t *testing.T) {
	stdout, stderr, code := fghc(t, hello, "-pes", "2", "-")
	if code != 0 || stdout != "hi\n" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 printing hi", code, stdout, stderr)
	}
}

// TestMalformedFlagsExit2 pins that a machine the simulator cannot
// build ends in a labeled usage error (exit 2) instead of a panic.
func TestMalformedFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-pes", "0"}, "-pes"},
		{[]string{"-pes", "65"}, "-pes"},
		{[]string{"-heap", "-5"}, "layout area of -5 words"},
		{[]string{"-heap", "5000000000"}, "layout area of 5000000000 words"},
	} {
		_, stderr, code := fghc(t, hello, append(c.args, "-")...)
		if code != 2 || strings.Contains(stderr, "panic:") ||
			!strings.HasPrefix(stderr, "fghc: ") || !strings.Contains(stderr, c.want) {
			t.Errorf("fghc %v: exit %d, stderr %q; want exit 2 with an fghc: error naming %q", c.args, code, stderr, c.want)
		}
	}
}
