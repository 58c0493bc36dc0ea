package bench

import (
	"testing"

	"pimcache/internal/bench/programs"
	"pimcache/internal/cache"
)

// TestEveryProtocolLiveVerifyDW runs the Tri benchmark end-to-end on the
// real machine under every registered coherence protocol, with the DW
// software contract checked on every applied direct write and the answer
// checked against the Go reference implementation. It is the
// live-machine twin of internal/check's recycle wish: mem.FreeList's
// record recycling is exactly the pattern that broke the write-update
// protocols' DW (a remote copy kept alive by UP refreshes survived into
// the silent exclusive install and went permanently stale), and neither
// the facade registry smoke test (no recycling) nor replay-based
// benchmarks (no data plane checks) can see that class of bug.
func TestEveryProtocolLiveVerifyDW(t *testing.T) {
	b, ok := programs.ByName("Tri")
	if !ok {
		t.Fatal("Tri benchmark missing")
	}
	for _, p := range cache.Protocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := BaseCache(cache.OptionsAll())
			cfg.Protocol = p
			cfg.VerifyDW = true
			if _, _, err := RunLive(b, b.SmallScale, 8, cfg, false); err != nil {
				t.Fatalf("%s live run: %v", p, err)
			}
		})
	}
}
