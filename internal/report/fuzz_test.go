package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimcache/internal/obs"
)

// FuzzReadManifest feeds arbitrary bytes to pimreport's manifest loader
// and every manifest it accepts through the diff, median, check and
// table paths, against itself and a well-formed baseline. Malformed
// input must end in a labeled error, never a panic.
func FuzzReadManifest(f *testing.F) {
	base := mkManifest("fuzz", "stream", 10, nil)
	good, err := base.MarshalIndent()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(strings.Replace(string(good), `"schema": 1`, `"schema": 99`, 1)))
	f.Add([]byte(`{"schema": 1, "stats": {"refs": 5, "cache": {"Hits": [1, 2]}}, "benches": [{}]}`))
	f.Add([]byte(`{"schema": 1, "timing": {"mrefs_per_s": -1e308, "median_of": -3}}`))
	f.Add([]byte(`{"schema":`))
	f.Add([]byte(`[]`))
	if paths, _ := filepath.Glob("../../docs/baselines/*.json"); len(paths) > 0 {
		if b, err := os.ReadFile(paths[0]); err == nil {
			f.Add(b)
		}
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ms, err := Load([]string{path})
		if err != nil {
			if !strings.HasPrefix(err.Error(), "manifest") {
				t.Fatalf("unlabeled load error: %v", err)
			}
			return
		}
		m := ms[0]
		for _, pair := range [][2]*obs.Manifest{{m, m}, {m, base}, {base, m}} {
			if d, err := DiffManifests(pair[0], pair[1]); err == nil {
				_ = d.Format("a", "b")
			} else if !strings.HasPrefix(err.Error(), "report:") {
				t.Fatalf("unlabeled diff error: %v", err)
			}
		}
		for _, runs := range [][]*obs.Manifest{{m, m}, {m, base}} {
			if _, err := MedianManifest(runs); err != nil && !strings.HasPrefix(err.Error(), "report:") {
				t.Fatalf("unlabeled median error: %v", err)
			}
		}
		for _, c := range [][2][]*obs.Manifest{{{m}, {m, m}}, {{base}, {m}}, {{m, base}, {base}}} {
			if res, err := Check(c[0], c[1], 0.4); err == nil {
				_ = res.Format()
			} else if !strings.HasPrefix(err.Error(), "report:") {
				t.Fatalf("unlabeled check error: %v", err)
			}
		}
		_ = Table([]*obs.Manifest{m, base})
	})
}
