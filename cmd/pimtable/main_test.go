package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"pimcache/internal/cache"
	"pimcache/internal/obs"
)

const goldenPath = "testdata/ablation.golden"

// TestAblationGolden pins the complete -protocol all output byte for
// byte: every row of every registered protocol's transition table. Any
// change to a state machine, to the bus cost model, or to the registry
// itself shows up as a diff here. Regenerate after an intentional change
// with:
//
//	PIMTABLE_GEN_GOLDEN=1 go test ./cmd/pimtable
func TestAblationGolden(t *testing.T) {
	got, transitions := renderAll(obs.NewPhases())
	if os.Getenv("PIMTABLE_GEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d transitions)", goldenPath, transitions)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with PIMTABLE_GEN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("ablation output diverged from %s (regenerate with PIMTABLE_GEN_GOLDEN=1 if intended)\n%s",
			goldenPath, firstDiff(string(want), got))
	}
}

// firstDiff reports the first differing line, so a table change reads as
// a protocol row rather than a wall of text.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w, g)
		}
	}
	return "outputs identical"
}

// TestAblationCoversRegistry checks the ablation is registry-driven: the
// golden output has one section header per registered protocol, so a new
// protocol cannot be registered without joining (and re-pinning) the
// ablation.
func TestAblationCoversRegistry(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with PIMTABLE_GEN_GOLDEN=1): %v", err)
	}
	for _, p := range cache.Protocols() {
		header := p.String() + " protocol: "
		if !strings.Contains(string(want), header) {
			t.Errorf("golden ablation has no section for %q", p)
		}
	}
	if n := strings.Count(string(want), " protocol: "); n != len(cache.Protocols()) {
		t.Errorf("golden ablation has %d sections for %d registered protocols",
			n, len(cache.Protocols()))
	}
}
