package cache

import (
	"slices"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
)

// busEvent is the part of a bus-level probe event the lock-hit test
// checks: kind, command and (on a transaction's end) pattern.
type busEvent struct {
	kind probe.Kind
	cmd  bus.Command
	pat  bus.Pattern
}

// TestLockHitRetries drives every cache operation that can draw LH from
// a remote lock directory. PE0 holds a lock on word a; PE1 then runs one
// operation on a. A plain operation busy-waits and retries after the
// unlock: one aborted attempt (an invalidate-pattern broadcast answered
// LH), then the retry's own transaction. An LR aborts the same way and
// blocks instead. Either way PE1 counts exactly one busy wait.
func TestLockHitRetries(t *testing.T) {
	heapRP := Options{}
	heapRP.PerArea[mem.AreaHeap] = OptRP
	for _, tc := range []struct {
		name  string
		proto Protocol
		opts  Options
		// setup runs after PE0 has locked a.
		setup func(cs []*Cache, a word.Addr)
		op    func(c *Cache, a word.Addr)
		cmd   bus.Command // of the aborted attempt and its retry
		retry bus.Pattern // of the retry's transaction
		// blocks: the operation busy-waits for the UL instead of
		// retrying (an LR).
		blocks         bool
		state0, state1 State // of a's block in PE0 and PE1 afterwards
	}{
		{
			name: "R miss", proto: ProtocolPIM,
			op:  func(c *Cache, a word.Addr) { c.Read(a) },
			cmd: bus.CmdF, retry: bus.PatC2C, state0: S, state1: S,
		},
		{
			name: "W miss", proto: ProtocolPIM,
			op:  func(c *Cache, a word.Addr) { c.Write(a, word.Int(5)) },
			cmd: bus.CmdFI, retry: bus.PatC2C, state0: INV, state1: SM,
		},
		{
			name: "W hit on a shared block", proto: ProtocolPIM,
			setup: func(cs []*Cache, a word.Addr) { cs[1].Read(a + 1) },
			op:    func(c *Cache, a word.Addr) { c.Write(a, word.Int(5)) },
			cmd:   bus.CmdI, retry: bus.PatInval, state0: INV, state1: SM,
		},
		{
			name: "dragon W hit on a shared block", proto: ProtocolDragon,
			setup: func(cs []*Cache, a word.Addr) { cs[1].Read(a + 1) },
			op:    func(c *Cache, a word.Addr) { c.Write(a, word.Int(5)) },
			cmd:   bus.CmdUP, retry: bus.PatUpdate, state0: S, state1: SM,
		},
		{
			// Software never direct-writes a block holding a locked
			// word; the case exists to reach the DW's invalidation.
			name: "dragon DW invalidating a remote copy", proto: ProtocolDragon, opts: OptionsHeap(),
			op:  func(c *Cache, a word.Addr) { c.DirectWrite(a, word.Int(5)) },
			cmd: bus.CmdI, retry: bus.PatInval, state0: INV, state1: SM,
		},
		{
			name: "RP fetch from a remote holder", proto: ProtocolPIM, opts: heapRP,
			op:  func(c *Cache, a word.Addr) { c.ReadPurge(a) },
			cmd: bus.CmdFI, retry: bus.PatC2C, state0: INV, state1: INV,
		},
		{
			name: "LR miss", proto: ProtocolPIM,
			op:  func(c *Cache, a word.Addr) { c.LockRead(a) },
			cmd: bus.CmdFI, blocks: true, state0: EC, state1: INV,
		},
		{
			name: "LR shared hit", proto: ProtocolPIM,
			setup: func(cs []*Cache, a word.Addr) { cs[1].Read(a + 1) },
			op:    func(c *Cache, a word.Addr) { c.LockRead(a) },
			cmd:   bus.CmdI, blocks: true, state0: S, state1: S,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, b, cs := rig(t, 2, tc.opts, tc.proto)
			a := heapBase(m)
			if _, ok := cs[0].LockRead(a); !ok {
				t.Fatal("PE0's LR failed")
			}
			if tc.setup != nil {
				tc.setup(cs, a)
			}
			var events probe.Buffer
			b.SetProbe(&events)
			before := b.Stats()
			tc.op(cs[1], a)
			after := b.Stats()

			if got := cs[1].Stats().BusyWaits; got != 1 {
				t.Errorf("BusyWaits = %d, want 1", got)
			}
			if got := after.Commands[bus.CmdLH] - before.Commands[bus.CmdLH]; got != 1 {
				t.Errorf("LH drawn %d times, want 1", got)
			}
			if cs[1].Blocked() != tc.blocks {
				t.Errorf("Blocked = %v, want %v", cs[1].Blocked(), tc.blocks)
			}
			wantPats := make([]uint64, bus.NumPatterns)
			wantPats[bus.PatInval]++ // the aborted attempt
			want := []busEvent{
				{probe.KindBusBegin, tc.cmd, 0},
				{probe.KindLockConflict, 0, 0},
				{probe.KindBusEnd, tc.cmd, bus.PatInval},
			}
			if !tc.blocks {
				wantPats[tc.retry]++
				want = append(want,
					busEvent{probe.KindBusBegin, tc.cmd, 0},
					busEvent{probe.KindBusEnd, tc.cmd, tc.retry})
			}
			for p := range wantPats {
				if got := after.CountByPattern[p] - before.CountByPattern[p]; got != wantPats[p] {
					t.Errorf("%v transactions: %d, want %d", bus.Pattern(p), got, wantPats[p])
				}
			}
			var got []busEvent
			for _, e := range events.Events {
				switch e.Kind {
				case probe.KindBusBegin:
					got = append(got, busEvent{e.Kind, bus.Command(e.A), 0})
				case probe.KindBusEnd:
					got = append(got, busEvent{e.Kind, bus.Command(e.A), bus.Pattern(e.B)})
				case probe.KindLockConflict:
					got = append(got, busEvent{kind: e.Kind})
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("bus events %v, want %v", got, want)
			}
			if s0, s1 := cs[0].StateOf(a), cs[1].StateOf(a); s0 != tc.state0 || s1 != tc.state1 {
				t.Errorf("states PE0 %v, PE1 %v; want %v, %v", s0, s1, tc.state0, tc.state1)
			}
			if !cs[0].HeldLock(a) || cs[1].HeldLock(a) {
				t.Error("the lock moved")
			}
		})
	}
}

// TestDirectWriteKeepsRemoteLock: a DW into a block holding a word that
// another PE has locked installs the writer's dirty-shared state, not
// EM, as every other write path does. PE0 locks a, PE1 direct-writes a,
// and PE1's LR of a must then draw LH and block: on an EM block it would
// take the lock with no bus traffic while PE0 still holds it.
func TestDirectWriteKeepsRemoteLock(t *testing.T) {
	for _, tc := range []struct {
		proto Protocol
		// evict drops PE0's copy before the DW, as the DW contract asks
		// of the invalidate protocols; dragon's DW invalidates it.
		evict bool
		owner State // PE1's state after the DW
	}{
		{ProtocolPIM, true, SM},
		{ProtocolMOESI, true, O},
		{ProtocolDragon, false, SM},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			m, _, cs := rig(t, 2, OptionsHeap(), tc.proto)
			a := heapBase(m)
			if _, ok := cs[0].LockRead(a); !ok {
				t.Fatal("PE0's LR failed")
			}
			if tc.evict {
				cs[0].Flush()
			}
			cs[1].DirectWrite(a, word.Int(5))
			if st := cs[1].StateOf(a); st != tc.owner {
				t.Errorf("PE1 after the DW: %v, want %v", st, tc.owner)
			}
			if _, ok := cs[1].LockRead(a); ok {
				t.Error("PE1's LR took the lock PE0 holds")
			}
			if !cs[1].Blocked() {
				t.Error("PE1 is not busy-waiting for the unlock")
			}
			if !cs[0].HeldLock(a) || cs[1].HeldLock(a) {
				t.Errorf("lock held by PE0 %v, PE1 %v; want PE0 only",
					cs[0].HeldLock(a), cs[1].HeldLock(a))
			}
		})
	}
}
