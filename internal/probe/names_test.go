package probe_test

// The probe package owns the name tables of the enum bytes that ride in
// events (bus commands and patterns, cache states and ops) and mirrors
// a few enum values it needs itself. It cannot import bus, cache or
// machine (they import probe), so these tests pin each table and mirror
// to its enum: if an enum is renamed, renumbered or extended, they fail
// until probe is updated.

import (
	"fmt"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/machine"
	"pimcache/internal/probe"
)

// checkCoversEnum checks that name, one of probe's tables, names every
// value of its enum below n and renders n itself as unknown, so a value
// added to an enum without a name, or a name left over after one is
// removed, fails.
func checkCoversEnum(t *testing.T, table string, n int, name func(uint8) string, unknown string) {
	t.Helper()
	for v := 0; v < n; v++ {
		if got := name(uint8(v)); got == "" || got == fmt.Sprintf(unknown, v) {
			t.Errorf("%s(%d) = %q: value of the enum without a name", table, v, got)
		}
	}
	if got, want := name(uint8(n)), fmt.Sprintf(unknown, n); got != want {
		t.Errorf("%s(%d) = %q, want %q: name past the end of the enum", table, n, got, want)
	}
}

func TestCmdNamesMatchBus(t *testing.T) {
	checkCoversEnum(t, "CmdName", int(bus.NumCommands), probe.CmdName, "cmd(%d)")
}

func TestPatternNamesMatchBus(t *testing.T) {
	checkCoversEnum(t, "PatternName", int(bus.NumPatterns), probe.PatternName, "pattern(%d)")
}

// TestStateNamesMatchCache: O (MOESI's owned state) is the last state.
func TestStateNamesMatchCache(t *testing.T) {
	checkCoversEnum(t, "StateName", int(cache.O)+1, probe.StateName, "state(%d)")
}

func TestOpNamesMatchCache(t *testing.T) {
	if probe.OpU != uint8(cache.OpU) {
		t.Errorf("probe.OpU = %d, cache.OpU = %d", probe.OpU, uint8(cache.OpU))
	}
	checkCoversEnum(t, "OpName", int(cache.NumOps), probe.OpName, "op(%d)")
}

// TestNewProtocolNamesRender pins the names the MOESI and write-update
// protocols introduced: a probe event carrying the UP command, the
// update bus pattern, or the O state renders symbolically.
func TestNewProtocolNamesRender(t *testing.T) {
	if got := probe.CmdName(uint8(bus.CmdUP)); got != "UP" {
		t.Errorf("CmdName(CmdUP) = %q, want UP", got)
	}
	if got := probe.PatternName(uint8(bus.PatUpdate)); got != "update" {
		t.Errorf("PatternName(PatUpdate) = %q, want update", got)
	}
	if got := probe.StateName(uint8(cache.O)); got != "O" {
		t.Errorf("StateName(O) = %q, want O", got)
	}
}

func TestStatusesMirrorMachine(t *testing.T) {
	pairs := []struct {
		probe uint8
		mach  machine.Status
	}{
		{probe.StatusRunning, machine.StatusRunning},
		{probe.StatusIdle, machine.StatusIdle},
		{probe.StatusHalted, machine.StatusHalted},
		{probe.StatusFailed, machine.StatusFailed},
	}
	for _, p := range pairs {
		if p.probe != uint8(p.mach) {
			t.Errorf("probe status %d != machine status %d (%s)", p.probe, uint8(p.mach), p.mach)
		}
		if got, want := probe.StatusName(p.probe), p.mach.String(); got != want {
			t.Errorf("StatusName(%d) = %q, machine says %q", p.probe, got, want)
		}
	}
}
