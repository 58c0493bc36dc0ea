package machine

import (
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/kl1/word"
	"pimcache/internal/synth"
	"pimcache/internal/trace"
)

// TestPoisonModeIsObservationallyEquivalent replays full synthetic
// workloads on a poison-on and a poison-off machine and requires
// identical statistics and identical flushed memory. Poison mode
// scribbles the bus's reusable fetch buffer at the start of every
// transaction, so this equivalence proves no code path retains
// FetchResult.Data across a transaction boundary — the aliasing hazard
// the buffer's contract allows for. Any future violation shows up here
// as poison values in results or memory, rather than as a silent stale
// read.
func TestPoisonModeIsObservationallyEquivalent(t *testing.T) {
	sc := synth.Config{
		Layout: smallSynthLayout(),
		PEs:    8,
		Events: 30_000,
		Seed:   3,
	}
	if testing.Short() {
		sc.Events = 6_000
	}
	streams := []struct {
		name string
		gen  func(synth.Config) *trace.Trace
	}{
		{"ORParallel", synth.ORParallel},
		{"MessageRing", synth.MessageRing},
		{"SeqProlog", func(c synth.Config) *trace.Trace { c.PEs = 1; return synth.SeqProlog(c) }},
	}
	protocols := []cache.Protocol{
		cache.ProtocolPIM, cache.ProtocolIllinois, cache.ProtocolWriteThrough,
	}
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			tr := s.gen(sc)
			for _, proto := range protocols {
				run := func(poison bool) (cache.Stats, bus.Stats, map[word.Addr]word.Word) {
					m := New(Config{
						PEs:    sc.PEs,
						Layout: sc.Layout,
						Cache: cache.Config{
							// Tiny direct-mapped caches: constant eviction
							// traffic maximizes fetch-buffer reuse.
							SizeWords: 64, BlockWords: 4, Ways: 1, LockEntries: 4,
							Options:  cache.OptionsAll(),
							Protocol: proto,
							VerifyDW: true, PoisonBusData: poison,
						},
						Timing: bus.DefaultTiming(),
					})
					for i, ref := range tr.Refs {
						if err := applyRef(m.Cache(int(ref.PE())), ref); err != nil {
							t.Fatalf("ref %d: %v", i, err)
						}
					}
					m.FlushAll()
					img := make(map[word.Addr]word.Word)
					for _, ref := range tr.Refs {
						base := ref.Addr() &^ 3
						for i := word.Addr(0); i < 4; i++ {
							img[base+i] = m.Memory().Read(base + i)
						}
					}
					return m.CacheStats(), m.BusStats(), img
				}
				cOn, bOn, imgOn := run(true)
				cOff, bOff, imgOff := run(false)
				if cOn != cOff {
					t.Fatalf("%v: cache stats diverge with poison on:\non:  %+v\noff: %+v",
						proto, cOn, cOff)
				}
				if bOn != bOff {
					t.Fatalf("%v: bus stats diverge with poison on:\non:  %+v\noff: %+v",
						proto, bOn, bOff)
				}
				for a, v := range imgOff {
					if imgOn[a] != v {
						t.Fatalf("%v: memory[%#x] = %v with poison, %v without",
							proto, a, imgOn[a], v)
					}
					if imgOn[a]&^word.Word(0xFFFF) == bus.PoisonWord {
						t.Fatalf("%v: poison leaked into memory[%#x] = %v", proto, a, imgOn[a])
					}
				}
			}
		})
	}
}
