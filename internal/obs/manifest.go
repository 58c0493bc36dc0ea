package obs

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
	"pimcache/internal/safeio"
)

// SchemaVersion is the manifest schema this package writes.
// cmd/pimreport refuses manifests from a different schema, so a gate
// never silently compares incompatible layouts.
const SchemaVersion = 1

// Manifest is a structured record of one simulator run: what was run
// (config, trace, workload — deterministic), what came out (the full
// cache and bus statistics — deterministic, bit-identical across runs
// and hosts), and how the run went on this host (the Timing block —
// wall times, throughput, GC, environment; everything volatile lives
// here and only here).
//
// The deterministic/timing split is the load-bearing invariant:
// DeterministicJSON strips Timing and the result is byte-identical for
// two runs of the same trace and configuration (the manifest
// determinism oracle pins this across protocols, filters and
// stats-only). pimreport's regression gate therefore checks the two
// halves differently — exact match for the deterministic sections, a
// tolerance band around a median for throughput.
type Manifest struct {
	Schema   int    `json:"schema"`
	Tool     string `json:"tool"`
	Scenario string `json:"scenario,omitempty"`

	Config   RunConfig         `json:"config"`
	Trace    *TraceInfo        `json:"trace,omitempty"`
	Workload *Workload         `json:"workload,omitempty"`
	Stats    *RunStats         `json:"stats,omitempty"`
	Benches  []BenchSection    `json:"benches,omitempty"`
	Extra    map[string]string `json:"extra,omitempty"`

	Timing Timing `json:"timing"`

	started time.Time
}

// RunConfig is the canonical simulated-machine configuration of a run.
// Everything here is deterministic and participates in the manifest
// key; Mode and Shards describe the engine path (stream, resume,
// sharded, probed, live, bench, table), which changes throughput but
// never statistics.
type RunConfig struct {
	PEs           int    `json:"pes,omitempty"`
	CacheWords    int    `json:"cache_words,omitempty"`
	BlockWords    int    `json:"block_words,omitempty"`
	Ways          int    `json:"ways,omitempty"`
	LockEntries   int    `json:"lock_entries,omitempty"`
	Protocol      string `json:"protocol,omitempty"`
	Options       string `json:"options,omitempty"`
	BusWidthWords int    `json:"bus_width_words,omitempty"`
	MemCycles     int    `json:"mem_cycles,omitempty"`
	StatsOnly     bool   `json:"stats_only,omitempty"`
	FiltersOff    bool   `json:"filters_off,omitempty"`
	Mode          string `json:"mode,omitempty"`
	Shards        int    `json:"shards,omitempty"`
}

// NewRunConfig assembles a RunConfig from the shared CLI flag set.
// optsName is the -opts flag value (the Options bitmask has no unique
// name, so the flag string is the canonical spelling).
func NewRunConfig(pes int, ccfg cache.Config, timing bus.Timing, optsName, mode string, shards int) RunConfig {
	return RunConfig{
		PEs:           pes,
		CacheWords:    ccfg.SizeWords,
		BlockWords:    ccfg.BlockWords,
		Ways:          ccfg.Ways,
		LockEntries:   ccfg.LockEntries,
		Protocol:      ccfg.Protocol.String(),
		Options:       optsName,
		BusWidthWords: timing.WidthWords,
		MemCycles:     timing.MemCycles,
		StatsOnly:     ccfg.StatsOnly,
		FiltersOff:    ccfg.DisableBusFilters,
		Mode:          mode,
		Shards:        shards,
	}
}

// TraceInfo identifies the replayed reference stream by content, not
// by path: the SHA-256 of the serialized trace plus its header facts.
// Two hosts replaying the same trace file agree on every field.
type TraceInfo struct {
	SHA256      string `json:"sha256"`
	Refs        uint64 `json:"refs"`
	PEs         int    `json:"pes"`
	LayoutWords uint64 `json:"layout_words"`
}

// Workload identifies a live-run workload and its deterministic
// outcome (the simulator is deterministic, so the output digest and
// reduction counts are run-invariant).
type Workload struct {
	Bench        string `json:"bench"`
	Scale        int    `json:"scale"`
	OutputSHA256 string `json:"output_sha256,omitempty"`
	Reductions   uint64 `json:"reductions,omitempty"`
	Rounds       uint64 `json:"rounds,omitempty"`
}

// RunStats is the deterministic measurement core: the full cache and
// bus statistics of the run, bit-identical across runs, replay modes
// and hosts for the same trace and configuration.
type RunStats struct {
	Refs      uint64      `json:"refs"`
	MissRatio float64     `json:"miss_ratio"`
	Cache     cache.Stats `json:"cache"`
	Bus       bus.Stats   `json:"bus"`
}

// NewRunStats derives the manifest stats block from a run's outputs.
func NewRunStats(refs uint64, cs cache.Stats, bs bus.Stats) *RunStats {
	return &RunStats{Refs: refs, MissRatio: cs.MissRatio(), Cache: cs, Bus: bs}
}

// BenchSection is one benchmark's deterministic results inside a
// pimbench evaluation manifest.
type BenchSection struct {
	Name     string         `json:"name"`
	Scale    int            `json:"scale"`
	PEs      int            `json:"pes"`
	Refs     uint64         `json:"refs"`
	Variants []VariantStats `json:"variants,omitempty"`
}

// VariantStats is one Table-4 variant's replayed statistics.
type VariantStats struct {
	Variant string      `json:"variant"`
	Cache   cache.Stats `json:"cache"`
	Bus     bus.Stats   `json:"bus"`
}

// Timing is the volatile half of the manifest: host identity, wall
// times, throughput, phases, allocator behaviour. Nothing here
// participates in determinism checks; everything host- or
// run-specific must live here.
type Timing struct {
	Host        string   `json:"host,omitempty"`
	OS          string   `json:"os,omitempty"`
	Arch        string   `json:"arch,omitempty"`
	GoVersion   string   `json:"go_version,omitempty"`
	GitRevision string   `json:"git_revision,omitempty"`
	GitDirty    bool     `json:"git_dirty,omitempty"`
	GOMAXPROCS  int      `json:"gomaxprocs,omitempty"`
	NumCPU      int      `json:"num_cpu,omitempty"`
	Start       string   `json:"start,omitempty"`
	Args        []string `json:"args,omitempty"`
	TraceFile   string   `json:"trace_file,omitempty"`

	WallSeconds float64 `json:"wall_seconds,omitempty"`
	WorkSeconds float64 `json:"work_seconds,omitempty"`
	MrefsPerSec float64 `json:"mrefs_per_sec,omitempty"`
	MedianOf    int     `json:"median_of,omitempty"`

	Phases   []PhaseSummary    `json:"phases,omitempty"`
	Metrics  []Metric          `json:"metrics,omitempty"`
	GC       *GCStats          `json:"gc,omitempty"`
	Profiles map[string]string `json:"profiles,omitempty"`
}

// GCStats summarizes the Go runtime's allocator work during the run.
type GCStats struct {
	NumGC             uint32  `json:"num_gc"`
	PauseTotalSeconds float64 `json:"pause_total_seconds"`
	TotalAllocBytes   uint64  `json:"total_alloc_bytes"`
	Mallocs           uint64  `json:"mallocs"`
	HeapAllocBytes    uint64  `json:"heap_alloc_bytes"`
}

// NewManifest starts a manifest for the named tool, capturing the host
// environment and the start time into the Timing block.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Schema:  SchemaVersion,
		Tool:    tool,
		started: time.Now(),
	}
	host, _ := os.Hostname()
	m.Timing = Timing{
		Host:       host,
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Start:      m.started.UTC().Format(time.RFC3339),
		Args:       os.Args[1:],
	}
	m.Timing.GitRevision, m.Timing.GitDirty = vcsRevision()
	return m
}

// vcsRevision reads the VCS stamp the Go toolchain embeds in binaries
// built from a checkout ("" when absent, e.g. under go test).
func vcsRevision() (rev string, dirty bool) {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}

// FinishTiming completes the Timing block: total wall time since
// NewManifest, the measured work phase (workSeconds, usually the
// replay span) and its throughput over refs, phase summaries, metric
// snapshot, and allocator statistics.
func (m *Manifest) FinishTiming(ph *Phases, reg *Registry, refs uint64, workSeconds float64) {
	m.Timing.WallSeconds = time.Since(m.started).Seconds()
	m.Timing.WorkSeconds = workSeconds
	if workSeconds > 0 && refs > 0 {
		m.Timing.MrefsPerSec = float64(refs) / workSeconds / 1e6
	}
	m.Timing.Phases = ph.Summary()
	m.Timing.Metrics = reg.Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Timing.GC = &GCStats{
		NumGC:             ms.NumGC,
		PauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
		TotalAllocBytes:   ms.TotalAlloc,
		Mallocs:           ms.Mallocs,
		HeapAllocBytes:    ms.HeapAlloc,
	}
}

// keyFields are the sections a manifest key digests: everything
// deterministic that defines *what* was run (not what came out).
type keyFields struct {
	Scenario string     `json:"scenario,omitempty"`
	Config   RunConfig  `json:"config"`
	Trace    *TraceInfo `json:"trace,omitempty"`
	Workload *Workload  `json:"workload,omitempty"`
}

// Key identifies the run scenario: a digest of the scenario label,
// configuration, trace identity and workload. Two manifests with equal
// keys measured the same thing the same way, so their deterministic
// stats must match exactly and their throughputs are comparable.
func (m *Manifest) Key() string {
	return digestKey(keyFields{
		Scenario: m.Scenario, Config: m.Config, Trace: m.Trace, Workload: m.Workload,
	})
}

// StatsKey identifies the *simulated outcome*: like Key, but with the
// scenario label and the replay-engine knobs that provably do not
// change statistics (Mode, Shards, StatsOnly, FiltersOff) cleared.
// Manifests sharing a StatsKey must agree bit for bit on their Stats
// section even when they took different engine paths — the free
// cross-mode, cross-host determinism oracle.
func (m *Manifest) StatsKey() string {
	cfg := m.Config
	cfg.Mode = ""
	cfg.Shards = 0
	cfg.StatsOnly = false
	cfg.FiltersOff = false
	return digestKey(keyFields{Config: cfg, Trace: m.Trace, Workload: m.Workload})
}

func digestKey(k keyFields) string {
	b, err := json.Marshal(k)
	if err != nil {
		// keyFields contains only marshalable types; this is unreachable.
		panic(fmt.Sprintf("obs: marshal manifest key: %v", err))
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// DeterministicJSON renders the manifest with the Timing block
// stripped: the byte-identical-across-runs half. The manifest
// determinism oracle compares exactly these bytes.
func (m *Manifest) DeterministicJSON() ([]byte, error) {
	c := *m
	c.Timing = Timing{}
	return json.MarshalIndent(&c, "", "  ")
}

// MarshalIndent renders the full manifest as indented JSON with a
// trailing newline (the on-disk format).
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path atomically (temp + fsync +
// rename): a crash mid-write never leaves a torn manifest for a later
// gate to choke on.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.MarshalIndent()
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if err := safeio.WriteFileBytes(path, b); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// ReadManifestFile loads a manifest and validates its schema.
func ReadManifestFile(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("manifest %s: schema %d, this build understands %d",
			path, m.Schema, SchemaVersion)
	}
	return &m, nil
}

// HexDigest renders a hash sum as lowercase hex (convenience for
// filling TraceInfo.SHA256 and Workload.OutputSHA256).
func HexDigest(sum []byte) string { return fmt.Sprintf("%x", sum) }
