package machine_test

import (
	"bytes"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/machine"
	"pimcache/internal/mem"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// fuzzWorkload is FuzzDecodeSnapshot's seed: a small lock-heavy stream,
// the stats-only machine configuration it replays on, and the encoded
// checkpoint of that machine a third of the way through the stream.
func fuzzWorkload(tb testing.TB) (*trace.Trace, machine.Config, []byte) {
	c := synth.DefaultConfig()
	c.PEs = 4
	c.Events = 3000
	tr := synth.ORParallel(c)
	ccfg := cache.DefaultConfig()
	ccfg.Options = cache.OptionsAll()
	ccfg.StatsOnly = true
	m, ports := replayMachine(tr, ccfg)
	k := tr.Len() / 3
	if err := trace.ReplayRange(tr, ports, 0, k); err != nil {
		tb.Fatal(err)
	}
	s := m.Checkpoint()
	s.RefsReplayed = k
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		tb.Fatal(err)
	}
	return tr, m.Config(), buf.Bytes()
}

// editSnapshot decodes the seed checkpoint, applies data as a list of
// four-byte edits (kind, PE, index, value) to its planes, lock entries,
// sections and configuration, and re-encodes it, so the result passes
// the frame and checksum and reaches Restore.
func editSnapshot(t *testing.T, tr *trace.Trace, seed, data []byte) []byte {
	s, err := machine.DecodeSnapshot(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+3 < len(data); i += 4 {
		kind, idx, val := data[i]%10, int(data[i+2]), data[i+3]
		if len(s.Caches) == 0 {
			break
		}
		c := s.Caches[int(data[i+1])%len(s.Caches)]
		// at picks an entry of a plane of n entries (n > 0).
		at := func(n int) int { return (idx<<8 | int(val)) % n }
		// An address the rest of the replay touches, so edited locks and
		// frames meet real references.
		addr := tr.Refs[at(len(tr.Refs))].Addr()
		switch kind {
		case 0:
			if len(c.States) > 0 {
				c.States[at(len(c.States))] = cache.State(val % 8)
			}
		case 1:
			if len(c.Bases) > 0 {
				c.Bases[at(len(c.Bases))] = addr &^ word.Addr(val%8)
			}
		case 2:
			if len(c.Bases) > 0 {
				c.Bases[at(len(c.Bases))] += word.Addr(val) << 20
			}
		case 3:
			if len(c.Locks) > 0 {
				c.Locks[idx%len(c.Locks)] = cache.LockEntrySnapshot{Addr: addr, State: cache.LockState(val % 4)}
			}
		case 4:
			c.Blocked, c.BlockedOn = val&1 == 1, addr
		case 5:
			switch val % 5 {
			case 0:
				c.States = c.States[:idx%(len(c.States)+1)]
			case 1:
				c.Bases = c.Bases[:idx%(len(c.Bases)+1)]
			case 2:
				c.LRU = c.LRU[:idx%(len(c.LRU)+1)]
			case 3:
				c.Locks = c.Locks[:idx%(len(c.Locks)+1)]
			default:
				c.UpdCounts = append(c.UpdCounts, val)
			}
		case 6:
			switch val % 3 {
			case 0:
				s.Bus = nil
			case 1:
				s.Caches = s.Caches[:idx%len(s.Caches)]
			default:
				s.Caches = append(s.Caches, c)
			}
		case 7:
			if len(c.LRU) > 0 {
				c.LRU[at(len(c.LRU))] = uint64(val)
			}
			c.LRUClock ^= uint64(val)
		case 8:
			switch cfg := &s.Config; val % 6 {
			case 0:
				cfg.PEs += idx - 128
			case 1:
				cfg.Cache.SizeWords <<= idx % 40
			case 2:
				cfg.Cache.LockEntries += idx - 128
			case 3:
				cfg.Cache.Protocol = cache.Protocol(idx)
			case 4:
				cfg.Layout.HeapWords += (idx - 128) << 24
			default:
				cfg.Timing.WidthWords += idx - 128
			}
		default:
			s.RefsReplayed += (idx - 128) << (val % 16)
		}
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSnapshot drives malformed checkpoints through everything a
// resume does with one: decode, Verify, a Restore into the seed's
// machine, and a replay of the rest of the seed's trace. None of it may
// panic, and every error must be labeled by the package that raised it.
// An input that starts with the checkpoint magic is decoded as it is;
// any other input is a list of edits to the decoded seed (editSnapshot),
// which re-encodes it so the frame and checksum stay valid.
func FuzzDecodeSnapshot(f *testing.F) {
	tr, cfg, seed := fuzzWorkload(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(machine.SnapshotMagic)+5])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	for kind := byte(0); kind < 10; kind++ {
		f.Add([]byte{kind, 1, 7, 3, kind, 2, 200, 130})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := data
		if !bytes.HasPrefix(data, []byte(machine.SnapshotMagic)) {
			raw = editSnapshot(t, tr, seed, data)
		}
		for _, err := range resumeFuzzed(tr, cfg, raw) {
			if err == nil {
				continue
			}
			labeled := false
			for _, p := range []string{"machine: ", "cache: ", "bus: ", "trace: "} {
				labeled = labeled || strings.HasPrefix(err.Error(), p)
			}
			if !labeled {
				t.Fatalf("unlabeled error: %v", err)
			}
		}
	})
}

// resumeFuzzed decodes raw, verifies it, restores it into a machine of
// the seed's configuration and replays the rest of tr there, returning
// the errors it met on the way.
func resumeFuzzed(tr *trace.Trace, cfg machine.Config, raw []byte) []error {
	s, err := machine.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		return []error{err}
	}
	verr := s.Verify()
	m := machine.New(cfg)
	if err := m.Restore(s); err != nil {
		return []error{verr, err}
	}
	ports := make([]mem.Accessor, cfg.PEs)
	for i := range ports {
		ports[i] = m.Port(i)
	}
	return []error{verr, trace.ReplayRange(tr, ports, s.RefsReplayed, tr.Len())}
}
