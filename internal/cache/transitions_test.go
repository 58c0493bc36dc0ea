package cache

import (
	"fmt"
	"strings"
	"testing"
)

func findRow(rows []TransitionRow, start State, remote, op string) (TransitionRow, bool) {
	for _, r := range rows {
		if r.Start == start && r.Remote == remote && r.Op == op {
			return r, true
		}
	}
	return TransitionRow{}, false
}

// TestPIMTransitionGolden pins the protocol's signature transitions — the
// rows that define the PIM design against Illinois and the optimized
// commands' zero-cost paths.
func TestPIMTransitionGolden(t *testing.T) {
	rows := DeriveTransitions(ProtocolPIM)
	want := []struct {
		start   State
		remote  string
		op      string
		end     State
		remote2 string
		bus     string
		cycles  uint64
	}{
		// Plain protocol: memory fill grants exclusivity; c2c shares.
		{INV, "-", "R", EC, "-", "F", 13},
		{INV, "EC", "R", S, "S", "F+H", 7},
		// The SM state: a dirty supplier keeps write-back ownership and
		// memory is NOT updated (Illinois would go S/S via copy-back).
		{INV, "EM", "R", S, "SM", "F+H", 7},
		// Write paths: fetch-on-write, invalidation on shared hits, free
		// upgrades on exclusives.
		{INV, "-", "W", EM, "-", "FI", 13},
		{S, "S", "W", EM, "-", "I", 2},
		{EC, "-", "W", EM, "-", "-", 0},
		{EM, "-", "W", EM, "-", "-", 0},
		// Direct write: allocation without fetch, zero bus cycles.
		{INV, "-", "DW", EM, "-", "-", 0},
		// Exclusive read at a block's last word: the local copy is purged
		// for free (dead data is never swapped out).
		{EM, "-", "ER", INV, "-", "-", 0},
		{S, "S", "ER", INV, "S", "-", 0},
		// Read invalidate takes a remote copy exclusively in one
		// transfer, pre-empting the later I.
		{INV, "EM", "RI", EM, "-", "FI+H", 7},
		{INV, "S", "RI", EC, "-", "FI+H", 7},
		// Lock read: free on exclusive hits; LK rides FI/I otherwise.
		{EM, "-", "LR", EM, "-", "-", 0},
		{EC, "-", "LR", EC, "-", "-", 0},
		{S, "S", "LR", EC, "-", "I+LK", 2},
		{INV, "-", "LR", EC, "-", "FI+LK", 13},
		{INV, "EM", "LR", EM, "-", "FI+H+LK", 7},
	}
	for _, w := range want {
		r, ok := findRow(rows, w.start, w.remote, w.op)
		if !ok {
			t.Errorf("missing transition %v/%s + %s", w.start, w.remote, w.op)
			continue
		}
		got := fmt.Sprintf("%v/%s %s %d", r.End, r.RemoteEnd, r.BusOps, r.Cycles)
		exp := fmt.Sprintf("%v/%s %s %d", w.end, w.remote2, w.bus, w.cycles)
		if got != exp {
			t.Errorf("%v/%s + %s: got %s, want %s", w.start, w.remote, w.op, got, exp)
		}
	}
	if len(rows) < 60 {
		t.Errorf("only %d transitions derived", len(rows))
	}
}

// TestIllinoisTransitionDiffers pins the defining difference: under
// Illinois a dirty supplier goes S (after copying back), never SM.
func TestIllinoisTransitionDiffers(t *testing.T) {
	rows := DeriveTransitions(ProtocolIllinois)
	r, ok := findRow(rows, INV, "EM", "R")
	if !ok {
		t.Fatal("missing INV/EM + R")
	}
	if r.End != S || r.RemoteEnd != "S" {
		t.Errorf("Illinois dirty transfer: got %v/%s, want S/S", r.End, r.RemoteEnd)
	}
	for _, row := range rows {
		if row.End == SM || row.RemoteEnd == "SM" {
			t.Errorf("Illinois reached SM: %+v", row)
		}
	}
}

// TestWriteThroughTransitions: stores always hit the bus and nothing is
// ever dirty.
func TestWriteThroughTransitions(t *testing.T) {
	rows := DeriveTransitions(ProtocolWriteThrough)
	for _, r := range rows {
		if r.End == EM || r.End == SM {
			t.Errorf("write-through produced a dirty state: %+v", r)
		}
		if r.Op == "W" && !strings.Contains(r.BusOps, "WT") {
			t.Errorf("write-through store without bus write: %+v", r)
		}
	}
}

// TestTransitionsFormatAndNoSilentBusCost: rendering covers every row,
// and zero-cycle rows really issued no commands.
func TestTransitionsFormat(t *testing.T) {
	rows := DeriveTransitions(ProtocolPIM)
	out := FormatTransitions(rows)
	if n := strings.Count(out, "\n"); n != len(rows)+2 {
		t.Errorf("rendered %d lines for %d rows", n, len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 && r.BusOps != "-" {
			t.Errorf("zero cycles but bus ops %q: %+v", r.BusOps, r)
		}
		if r.Cycles > 0 && r.BusOps == "-" {
			t.Errorf("cycles %d with no bus ops: %+v", r.Cycles, r)
		}
	}
}

// TestMOESITransitionGolden pins the rows that define MOESI against PIM:
// the dirty supplier keeps ownership as O (not SM), and clean holders do
// NOT supply — a read hitting a remote clean copy pays the memory-fill
// cost, unlike PIM/Illinois cache-to-cache transfer.
func TestMOESITransitionGolden(t *testing.T) {
	rows := DeriveTransitions(ProtocolMOESI)
	want := []struct {
		start   State
		remote  string
		op      string
		end     State
		remote2 string
		bus     string
		cycles  uint64
	}{
		// Dirty supplier becomes Owned, memory not updated.
		{INV, "EM", "R", S, "O", "F+H", 7},
		// Clean holder asserts H but memory supplies: full fill cost.
		{INV, "EC", "R", S, "S", "F+H", 13},
		{INV, "S", "R", S, "S", "F+H", 13},
		// The owner keeps supplying on later fills.
		{INV, "O", "R", S, "O", "F+H", 7},
		// Writing an owned block invalidates the sharers for 2 cycles.
		{O, "S", "W", EM, "-", "I", 2},
	}
	for _, w := range want {
		r, ok := findRow(rows, w.start, w.remote, w.op)
		if !ok {
			t.Errorf("missing transition %v/%s + %s", w.start, w.remote, w.op)
			continue
		}
		got := fmt.Sprintf("%v/%s %s %d", r.End, r.RemoteEnd, r.BusOps, r.Cycles)
		exp := fmt.Sprintf("%v/%s %s %d", w.end, w.remote2, w.bus, w.cycles)
		if got != exp {
			t.Errorf("%v/%s + %s: got %s, want %s", w.start, w.remote, w.op, got, exp)
		}
	}
	for _, r := range rows {
		if r.Start == SM || r.End == SM || r.Remote == "SM" || r.RemoteEnd == "SM" {
			t.Errorf("MOESI reached SM: %+v", r)
		}
	}
}

// TestDragonTransitionGolden pins the write-update signature: a write to
// a shared block broadcasts UP and keeps every copy valid (the writer
// becomes the dirty-shared owner, the sharer stays S) where PIM would
// invalidate.
func TestDragonTransitionGolden(t *testing.T) {
	rows := DeriveTransitions(ProtocolDragon)
	r, ok := findRow(rows, S, "S", "W")
	if !ok {
		t.Fatal("missing S/S + W")
	}
	if r.End != SM || r.RemoteEnd != "S" || !strings.Contains(r.BusOps, "UP") {
		t.Errorf("Dragon shared write: got %v/%s %s, want SM/S with UP", r.End, r.RemoteEnd, r.BusOps)
	}
	// A former owner receiving the update hands ownership to the writer.
	r, ok = findRow(rows, S, "SM", "W")
	if !ok {
		t.Fatal("missing S/SM + W")
	}
	if r.End != SM || r.RemoteEnd != "S" || !strings.Contains(r.BusOps, "UP") {
		t.Errorf("Dragon write under remote owner: got %v/%s %s, want SM/S with UP", r.End, r.RemoteEnd, r.BusOps)
	}
	// Exclusive writes stay silent, exactly as under PIM.
	r, ok = findRow(rows, EM, "-", "W")
	if !ok {
		t.Fatal("missing EM/- + W")
	}
	if r.BusOps != "-" || r.Cycles != 0 {
		t.Errorf("Dragon exclusive write: got %s %d, want silent", r.BusOps, r.Cycles)
	}
	// Locks still invalidate: LR on a shared block must not broadcast UP.
	r, ok = findRow(rows, S, "S", "LR")
	if !ok {
		t.Fatal("missing S/S + LR")
	}
	if strings.Contains(r.BusOps, "UP") || r.RemoteEnd != "-" {
		t.Errorf("Dragon lock read: got %s remote %s, want invalidation", r.BusOps, r.RemoteEnd)
	}
}
