package cache

import (
	"strings"
	"testing"

	"pimcache/internal/kl1/word"
)

// TestRestoreRejectsInconsistentPlanes: a snapshot whose planes break
// the directory's invariants is refused with a labeled error before
// anything is copied, instead of yielding wrong statistics later.
func TestRestoreRejectsInconsistentPlanes(t *testing.T) {
	m, _, cs := rig(t, 1, OptionsNone(), ProtocolPIM)
	c := cs[0]
	// Four blocks of one set (4 sets of 4-word blocks: a stride of 16
	// words), one per way.
	base := heapBase(m)
	for k := 0; k < 4; k++ {
		c.Read(base + word.Addr(16*k))
	}
	f := c.lookup(base)
	if f < 0 || c.lookup(base+16) != f+1 {
		t.Fatalf("blocks not in consecutive ways of one set: frames %d, %d", f, c.lookup(base+16))
	}
	cases := []struct {
		name string
		edit func(s *Snapshot)
		want string
	}{
		{"bases truncated", func(s *Snapshot) { s.Bases = s.Bases[:1] }, "1 bases"},
		{"LRU truncated", func(s *Snapshot) { s.LRU = s.LRU[:1] }, "1 LRU clocks"},
		{"block in two ways", func(s *Snapshot) { s.Bases[f+1] = s.Bases[f] }, "both hold block"},
		{"block in another set", func(s *Snapshot) { s.Bases[f] += 4 }, "belongs to set"},
		{"unaligned base", func(s *Snapshot) { s.Bases[f]++ }, "not block-aligned"},
		{"unknown state", func(s *Snapshot) { s.States[f] = 9 }, "unknown state 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := c.Snapshot()
			tc.edit(s)
			before := c.Stats()
			s.Stats = Stats{}
			err := c.Restore(s)
			if err == nil || !strings.HasPrefix(err.Error(), "cache: snapshot") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want a cache: snapshot error containing %q", err, tc.want)
			}
			if c.Stats() != before {
				t.Error("a refused snapshot was partly restored")
			}
		})
	}
	if err := c.Restore(c.Snapshot()); err != nil {
		t.Fatalf("Restore of an untouched snapshot: %v", err)
	}
}
