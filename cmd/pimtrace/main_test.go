package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pimcache/internal/bench"
	"pimcache/internal/bench/programs"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/obs"
	"pimcache/internal/safeio"
	"pimcache/internal/trace"
)

// The tests drive the real command: with pimtraceAsCommand set in its
// environment, the test binary runs main instead of the tests, so each
// test re-executes it with a pimtrace command line and checks the exit
// status, the output and the files written.
const pimtraceAsCommand = "PIMTRACE_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(pimtraceAsCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// pimtrace runs the command in dir and returns its stdout, stderr and
// exit status.
func pimtrace(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), pimtraceAsCommand+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("pimtrace %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// synthTrace writes a small OR-parallel trace into dir.
func synthTrace(t *testing.T, dir string) string {
	t.Helper()
	if _, stderr, code := pimtrace(t, dir, "synth", "-pes", "4", "-events", "20000", "-o", "t.trc"); code != 0 {
		t.Fatalf("synth exited %d: %s", code, stderr)
	}
	return "t.trc"
}

// TestMalformedFlagsExit2 pins that every flag value the simulator core
// cannot take ends in a labeled usage error (exit 2, naming the flag)
// instead of a panic or an unreadable trace.
func TestMalformedFlagsExit2(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-pes", []string{"synth", "-pes", "0", "-o", "bad.trc"}},
		{"-pes", []string{"synth", "-pes", "65", "-o", "bad.trc"}},
		{"-pes", []string{"record", "-pes", "0", "-o", "bad.trc"}},
		{"-pes", []string{"record", "-pes", "65", "-o", "bad.trc"}},
		{"-scale", []string{"record", "-scale", "-1", "-o", "bad.trc"}},
		{"-events", []string{"synth", "-events", "-5", "-o", "bad.trc"}},
		{"-buswidth", []string{"replay", "-buswidth", "0", tr}},
		{"-buswidth", []string{"replay", "-buswidth", "-1", tr}},
		{"-hotspots", []string{"replay", "-hotspots", "-1", tr}},
		{"-csv", []string{"replay", "-csv", "iv.csv", tr}},
	} {
		_, stderr, code := pimtrace(t, dir, c.args...)
		if code != 2 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, c.flag) {
			t.Errorf("pimtrace %v: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.flag)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.trc")); err == nil {
		t.Error("a refused synth/record still wrote its trace")
	}
}

// TestReplayRunBounds: replay, the one command that pets a stall
// watchdog, takes -stall next to the shared -timeout.
func TestReplayRunBounds(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	for _, args := range [][]string{
		{"replay", "-stall", "1h", tr},
		{"replay", "-timeout", "1h", tr},
	} {
		if _, stderr, code := pimtrace(t, dir, args...); code != 0 {
			t.Errorf("pimtrace %v: exit %d, stderr %q; want exit 0", args, code, stderr)
		}
	}
}

// TestRecordStreamsTrace: record writes, chunk by chunk, the bytes of
// the in-memory recording of the same live run, and an unwritable -o
// fails without leaving a file.
func TestRecordStreamsTrace(t *testing.T) {
	dir := t.TempDir()
	stdout, stderr, code := pimtrace(t, dir, "record", "-bench", "Tri", "-scale", "3", "-pes", "4", "-o", "tri.trc")
	if code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	b, _ := programs.ByName("Tri")
	_, tr, err := bench.RunLive(b, 3, 4, bench.BaseCache(cache.OptionsAll()), true)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.Write(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "tri.trc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("recorded trace (%d bytes) differs from the in-memory recording (%d bytes)", len(got), want.Len())
	}
	if line := fmt.Sprintf("recorded %d references from Tri (scale 3, 4 PEs)", tr.Len()); !strings.Contains(stdout, line) {
		t.Errorf("record printed %q, want %q", stdout, line)
	}

	_, stderr, code = pimtrace(t, dir, "record", "-bench", "Tri", "-scale", "3", "-o", "missing/tri.trc")
	if code != 1 || !strings.Contains(stderr, "missing") {
		t.Errorf("record to a missing directory: exit %d, stderr %q; want exit 1 naming it", code, stderr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("a failed record left files behind: %v", entries)
	}
}

// TestReplayTelemetry pins the probed replay: it prints the interval and
// hot-spot tables, writes the CSV and the Perfetto timeline, and its
// manifest records the same simulated outcome as a plain replay's.
func TestReplayTelemetry(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	if _, stderr, code := pimtrace(t, dir, "replay", "-manifest", "plain.json", tr); code != 0 {
		t.Fatalf("plain replay exited %d: %s", code, stderr)
	}
	stdout, stderr, code := pimtrace(t, dir, "replay", "-intervals", "500", "-hotspots", "3",
		"-csv", "iv.csv", "-events", "ev.json", "-manifest", "probed.json", tr)
	if code != 0 {
		t.Fatalf("probed replay exited %d: %s", code, stderr)
	}
	for _, want := range []string{
		"interval metrics (500 cycles per interval)",
		"hot blocks: most bus transactions (top 3)",
		"wrote iv.csv",
		"wrote ev.json",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("probed replay output lacks %q:\n%s", want, stdout)
		}
	}
	csv, err := os.ReadFile(filepath.Join(dir, "iv.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(csv)), "\n"); len(lines) < 2 ||
		lines[0] != "start,end,refs,misses,bus_cycles,lock_wait,invals,steals" {
		t.Errorf("iv.csv is not an interval CSV:\n%.200s", csv)
	}
	events, err := os.ReadFile(filepath.Join(dir, "ev.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(events) {
		t.Error("ev.json is not valid JSON")
	}

	plain, err := obs.ReadManifestFile(filepath.Join(dir, "plain.json"))
	if err != nil {
		t.Fatal(err)
	}
	probed, err := obs.ReadManifestFile(filepath.Join(dir, "probed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Config.Mode != "stream" || probed.Config.Mode != "probed" {
		t.Errorf("modes %q/%q, want stream/probed", plain.Config.Mode, probed.Config.Mode)
	}
	if plain.StatsKey() != probed.StatsKey() {
		t.Errorf("StatsKey %s (plain) != %s (probed)", plain.StatsKey(), probed.StatsKey())
	}
	if !reflect.DeepEqual(plain.Stats, probed.Stats) {
		t.Error("probed replay's statistics differ from the plain replay's")
	}
}

// TestReplayRefusesTelemetryWithCheckpoints pins that telemetry, which
// must cover a whole replay, cannot be combined with checkpoint/resume.
func TestReplayRefusesTelemetryWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	for _, args := range [][]string{
		{"replay", "-intervals", "500", "-checkpoint-every", "1000", "-checkpoint", "c.ckpt", tr},
		{"replay", "-events", "ev.json", "-resume", "-checkpoint", "c.ckpt", tr},
	} {
		_, stderr, code := pimtrace(t, dir, args...)
		if code != 2 || !strings.Contains(stderr, "-checkpoint-every/-resume") {
			t.Errorf("pimtrace %v: exit %d, stderr %q; want exit 2 refusing telemetry with checkpoints", args, code, stderr)
		}
	}
	for _, name := range []string{"c.ckpt", "ev.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("refused replay wrote %s", name)
		}
	}
}

// TestResumeRefusesForeignCheckpoint pins the CLI's resume identity
// check: a checkpoint taken from one trace must not be resumed on
// another (exit 1, naming the checkpoint file, no manifest), while the
// same checkpoint still resumes its own trace to the uninterrupted
// replay's statistics.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a := synthTrace(t, dir)
	if _, stderr, code := pimtrace(t, dir, "synth", "-pes", "4", "-events", "20000", "-seed", "2", "-o", "b.trc"); code != 0 {
		t.Fatalf("synth exited %d: %s", code, stderr)
	}
	ck := []string{"replay", "-checkpoint-every", "5000", "-checkpoint", "x.ckpt"}
	if _, stderr, code := pimtrace(t, dir, append(ck, "-chaos-exit-after", "2", a)...); code != 3 {
		t.Fatalf("chaos run exited %d, want 3: %s", code, stderr)
	}
	_, stderr, code := pimtrace(t, dir, append(ck, "-resume", "-manifest", "foreign.json", "b.trc")...)
	if code != 1 || !strings.Contains(stderr, "x.ckpt: bench: resume: checkpoint at ref 16384: taken from a different trace") {
		t.Errorf("resume on another trace: exit %d, stderr %q; want exit 1 naming x.ckpt", code, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "foreign.json")); err == nil {
		t.Error("refused resume wrote a manifest")
	}

	if _, stderr, code := pimtrace(t, dir, append(ck, "-resume", "-manifest", "resumed.json", a)...); code != 0 {
		t.Fatalf("resume on its own trace exited %d: %s", code, stderr)
	}
	if _, stderr, code := pimtrace(t, dir, "replay", "-manifest", "fresh.json", a); code != 0 {
		t.Fatalf("fresh replay exited %d: %s", code, stderr)
	}
	resumed, err := obs.ReadManifestFile(filepath.Join(dir, "resumed.json"))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := obs.ReadManifestFile(filepath.Join(dir, "fresh.json"))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.StatsKey() != fresh.StatsKey() || !reflect.DeepEqual(resumed.Stats, fresh.Stats) {
		t.Error("resumed replay's statistics differ from the uninterrupted replay's")
	}
}

// TestChaosTrailingData pins that two traces concatenated into one file
// are refused by verify, info and replay with the byte offset where the
// first trace ends, instead of replaying the first and ignoring the rest.
func TestChaosTrailingData(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dir, synthTrace(t, dir)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ab.trc"), append(raw, raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("trace: trailing data at byte offset %d after the last declared chunk", len(raw))
	for _, args := range [][]string{{"verify", "ab.trc"}, {"info", "ab.trc"}, {"replay", "-manifest", "ab.json", "ab.trc"}} {
		_, stderr, code := pimtrace(t, dir, args...)
		if code != 1 || !strings.Contains(stderr, want) {
			t.Errorf("pimtrace %v: exit %d, stderr %q; want exit 1 with %q", args, code, stderr, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ab.json")); err == nil {
		t.Error("refused replay wrote a manifest")
	}
}

// TestFailedReplayKeepsEvents pins that a replay failing partway keeps
// -events from leaving a torn timeline: no file where there was none,
// and an earlier timeline byte for byte. The trace's last chunk has one
// payload byte flipped, so the replay streams events before its checksum
// fails.
func TestFailedReplayKeepsEvents(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	raw, err := os.ReadFile(filepath.Join(dir, tr))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "corrupt.trc"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, tr)); err != nil {
		t.Fatal(err)
	}
	replay := func() {
		t.Helper()
		_, stderr, code := pimtrace(t, dir, "replay", "-events", "c.json", "corrupt.trc")
		if code != 1 || !strings.Contains(stderr, "chunk checksum mismatch") {
			t.Fatalf("replay of a corrupt trace: exit %d, stderr %q; want exit 1 with a checksum error", code, stderr)
		}
	}
	replay()
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"corrupt.trc"}) {
		t.Errorf("failed replay left %v, want only corrupt.trc", got)
	}

	earlier := []byte("{\"traceEvents\":[]}\n")
	if err := os.WriteFile(filepath.Join(dir, "c.json"), earlier, 0o644); err != nil {
		t.Fatal(err)
	}
	replay()
	if got, err := os.ReadFile(filepath.Join(dir, "c.json")); err != nil || !bytes.Equal(got, earlier) {
		t.Errorf("failed replay changed the earlier c.json (%d bytes, %v)", len(got), err)
	}
	if got := dirNames(t, dir); !reflect.DeepEqual(got, []string{"c.json", "corrupt.trc"}) {
		t.Errorf("failed replay left %v, want c.json and corrupt.trc", got)
	}
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

// TestReplayRefusesLockMisuse pins that a trace whose lock references no
// live run produces passes verify (its framing is sound) but fails replay
// with exit 1 and a labeled error naming the reference, never a panic.
func TestReplayRefusesLockMisuse(t *testing.T) {
	dir := t.TempDir()
	layout := mem.DefaultLayout()
	a := layout.Bounds().HeapBase
	ref := func(op cache.Op, addr word.Addr) trace.Ref { return trace.MakeRef(0, op, mem.AreaHeap, addr) }
	lr := func(addr word.Addr) trace.Ref { return ref(cache.OpLR, addr) }
	for _, tc := range []struct {
		name string
		refs []trace.Ref
		want string
	}{
		{"unlock.trc", []trace.Ref{ref(cache.OpR, a), ref(cache.OpU, a)},
			"trace: ref 1 (PE 0): cache: unlock of unheld address"},
		{"relock.trc", []trace.Ref{lr(a), lr(a)},
			"trace: ref 1 (PE 0): cache: re-locking"},
		{"overflow.trc", []trace.Ref{lr(a), lr(a + 1), lr(a + 2), lr(a + 3), lr(a + 4)},
			"trace: ref 4 (PE 0): cache: lock directory overflow"},
	} {
		tr := &trace.Trace{PEs: 1, Layout: layout, Refs: tc.refs}
		if err := safeio.WriteFile(filepath.Join(dir, tc.name), tr.Write); err != nil {
			t.Fatal(err)
		}
		if stdout, stderr, code := pimtrace(t, dir, "verify", tc.name); code != 0 || !strings.Contains(stdout, "ok trace v3") {
			t.Errorf("verify %s: exit %d, stdout %q, stderr %q; want ok", tc.name, code, stdout, stderr)
		}
		_, stderr, code := pimtrace(t, dir, "replay", tc.name)
		if code != 1 || strings.Contains(stderr, "panic:") || !strings.Contains(stderr, tc.want) {
			t.Errorf("replay %s: exit %d, stderr %q; want exit 1 with %q", tc.name, code, stderr, tc.want)
		}
	}
}

// TestVerifyRestoresCheckpoints pins that verify checks a checkpoint the
// way -resume does: a real checkpoint reports its PE count, replay
// position and resident blocks, while one that Restore refuses, or whose
// recorded geometry its planes do not match, fails with exit 1.
func TestVerifyRestoresCheckpoints(t *testing.T) {
	dir := t.TempDir()
	tr := synthTrace(t, dir)
	if _, stderr, code := pimtrace(t, dir, "replay", "-checkpoint-every", "5000", "-checkpoint", "x.ckpt",
		"-chaos-exit-after", "1", tr); code != 3 {
		t.Fatalf("chaos run exited %d, want 3: %s", code, stderr)
	}
	stdout, stderr, code := pimtrace(t, dir, "verify", "x.ckpt")
	if code != 0 || !regexp.MustCompile(`ok checkpoint: 4 PEs, replay position 8192, [1-9][0-9]* resident blocks`).MatchString(stdout) {
		t.Fatalf("verify x.ckpt: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	for _, tc := range []struct {
		name string
		edit func(s *machine.Snapshot)
		want string
	}{
		{"twice.ckpt", func(s *machine.Snapshot) {
			s.Caches[0].Locks[0] = cache.LockEntrySnapshot{Addr: 0x4000, State: cache.LCK}
			s.Caches[0].Locks[1] = cache.LockEntrySnapshot{Addr: 0x4000, State: cache.LCK}
		}, "machine: PE 0: cache: snapshot lock entries 0 and 1 both lock 0x4000"},
		{"nobus.ckpt", func(s *machine.Snapshot) { s.Bus = nil }, "machine: snapshot has no bus section"},
		{"huge.ckpt", func(s *machine.Snapshot) { s.Config.Cache.SizeWords <<= 30 },
			"machine: PE 0: snapshot has 1024 frames and 4 lock entries, its configuration 1099511627776 and 4"},
		{"pes.ckpt", func(s *machine.Snapshot) { s.Config.PEs = 0 }, "machine: PE count 0 outside [1, 64]"},
	} {
		s, err := machine.ReadSnapshotFile(filepath.Join(dir, "x.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(s)
		if err := s.WriteFile(filepath.Join(dir, tc.name)); err != nil {
			t.Fatal(err)
		}
		_, stderr, code := pimtrace(t, dir, "verify", tc.name)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("verify %s: exit %d, stderr %q; want exit 1 with %q", tc.name, code, stderr, tc.want)
		}
	}
}
