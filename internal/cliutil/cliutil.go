// Package cliutil holds the flag handling shared by the pimsim,
// pimbench, pimtable and pimtrace commands: validation, the cache
// configuration builder (the pimcache facade's too), profiles, run
// bounds, and the probe-layer telemetry flags. The simulator core
// panics on malformed configurations (and some bad values used to slip
// far deeper before surfacing); these helpers turn bad flag values into
// ordinary errors at the command line.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pimcache/internal/bench/programs"
	"pimcache/internal/bus"
	"pimcache/internal/cache"
)

// ValidatePEs checks a -pes flag: at least one PE, at most the bus's
// presence-filter limit.
func ValidatePEs(pes int) error {
	if pes < 1 {
		return fmt.Errorf("-pes must be at least 1 (got %d)", pes)
	}
	if pes > bus.MaxPEs {
		return fmt.Errorf("-pes must be at most %d (got %d)", bus.MaxPEs, pes)
	}
	return nil
}

// ValidateCount checks a count flag such as -jobs, -scale or -events:
// non-negative. Zero keeps the meaning its flag gives it (all cores, the
// default scale).
func ValidateCount(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s must be non-negative (got %d)", name, n)
	}
	return nil
}

// ValidateDuration checks a duration flag such as -timeout, -heartbeat or
// -stall: non-negative. Zero keeps the meaning its flag gives it (no
// bound, no report).
func ValidateDuration(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("%s must be non-negative (got %s)", name, d)
	}
	return nil
}

// ValidateBlock checks a -block flag: a positive power of two, so
// block-base masking works.
func ValidateBlock(block int) error {
	if block < 1 || block&(block-1) != 0 {
		return fmt.Errorf("-block must be a positive power of two (got %d)", block)
	}
	return nil
}

// ValidateBusWidth checks a -buswidth flag: at least one word per bus
// cycle.
func ValidateBusWidth(width int) error {
	if width < 1 {
		return fmt.Errorf("-buswidth must be at least 1 (got %d)", width)
	}
	return nil
}

// alternation renders a registry's entry names as an English
// alternation ("pim, illinois, ..., or adaptive") for help and error
// text, so a flag's surface tracks its registry.
func alternation[T any](entries []T, name func(T) string) string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = name(e)
	}
	if len(names) == 1 {
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}

func protocolList() string { return alternation(cache.Protocols(), cache.Protocol.String) }

// optsList names cache.OptionSets in lower case, the form -opts takes.
func optsList() string {
	return alternation(cache.OptionSets, func(s cache.OptionSet) string { return strings.ToLower(s.Name) })
}

// BenchList names the benchmark programs, extras included, for -bench
// help text.
func BenchList() string {
	return alternation(programs.AllWithExtras(), func(b programs.Benchmark) string { return b.Name })
}

// ProtocolFlagHelp is the shared -protocol flag usage string, derived
// from the protocol registry.
func ProtocolFlagHelp() string {
	return "coherence protocol (" + protocolList() + ")"
}

// OptsFlagHelp is the shared -opts flag usage string, derived from
// cache.OptionSets.
func OptsFlagHelp() string {
	return "optimized commands (" + optsList() + ")"
}

// ParseProtocol maps a -protocol flag value to a coherence protocol.
// Any protocol registered with the cache package parses; the error text
// enumerates the registry.
func ParseProtocol(name string) (cache.Protocol, error) {
	if p, ok := cache.ProtocolByName(name); ok {
		return p, nil
	}
	return 0, fmt.Errorf("unknown -protocol %q (want %s)", name, protocolList())
}

// ParseBench maps a -bench name (any case) to a benchmark program; the
// error text enumerates the programs.
func ParseBench(name string) (programs.Benchmark, error) {
	if b, ok := programs.ByName(name); ok {
		return b, nil
	}
	return programs.Benchmark{}, fmt.Errorf("unknown -bench %q (want %s)", name, BenchList())
}

// BuildCacheConfig assembles and validates a cache configuration from
// the -cache/-block/-ways/-opts/-protocol flags every simulator command
// shares, on top of cache.DefaultConfig. -opts takes a cache.OptionSets
// name in lower case. Geometry errors (non-power-of-two block or set
// count, sizes that don't divide) come back as ordinary errors instead
// of panics deep inside cache construction.
func BuildCacheConfig(sizeWords, blockWords, ways int, optsName, protocolName string) (cache.Config, error) {
	opts, ok := cache.OptionsByName(optsName)
	if !ok {
		return cache.Config{}, fmt.Errorf("unknown -opts %q (want %s)", optsName, optsList())
	}
	proto, err := ParseProtocol(protocolName)
	if err != nil {
		return cache.Config{}, err
	}
	cfg := cache.DefaultConfig()
	cfg.SizeWords, cfg.BlockWords, cfg.Ways = sizeWords, blockWords, ways
	cfg.Options, cfg.Protocol = opts, proto
	if err := cfg.Validate(); err != nil {
		return cache.Config{}, err
	}
	return cfg, nil
}

// ProfileSpec names the profile outputs a command was asked for. Empty
// paths disable the corresponding profile. Paths() feeds the manifest's
// Timing.Profiles block, so a regression report links straight to the
// profiles of the run that regressed.
type ProfileSpec struct {
	CPU   string // -cpuprofile
	Mem   string // -memprofile
	Block string // -blockprofile (goroutine blocking)
	Mutex string // -mutexprofile (contended mutexes)
}

// ProfileFlags registers the profile flags on fs and returns the spec
// they fill (valid after fs.Parse).
func ProfileFlags(fs *flag.FlagSet) *ProfileSpec {
	var p ProfileSpec
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&p.Block, "blockprofile", "", "write a goroutine-blocking profile to this file")
	fs.StringVar(&p.Mutex, "mutexprofile", "", "write a mutex-contention profile to this file")
	return &p
}

// Paths returns the non-empty profile outputs keyed by kind (nil when
// no profiling was requested) — the shape the run manifest records.
func (p ProfileSpec) Paths() map[string]string {
	out := map[string]string{}
	for kind, path := range map[string]string{
		"cpu": p.CPU, "mem": p.Mem, "block": p.Block, "mutex": p.Mutex,
	} {
		if path != "" {
			out[kind] = path
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// StartProfiles starts every profile the spec requests. It returns a
// stop function the command must call on every exit path — typically
// via defer from main's run helper — which stops the CPU profile and
// writes the heap/block/mutex profiles. Errors opening or writing the
// profile files come back as ordinary errors; profiling never aborts
// the simulation it is measuring.
func StartProfiles(spec ProfileSpec) (stop func() error, err error) {
	var cpuFile *os.File
	if spec.CPU != "" {
		cpuFile, err = os.Create(spec.CPU)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if spec.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if spec.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if spec.Mem != "" {
			f, err := os.Create(spec.Mem)
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		if spec.Block != "" {
			if err := writeNamedProfile("block", spec.Block); err != nil {
				return fmt.Errorf("-blockprofile: %w", err)
			}
			runtime.SetBlockProfileRate(0)
		}
		if spec.Mutex != "" {
			if err := writeNamedProfile("mutex", spec.Mutex); err != nil {
				return fmt.Errorf("-mutexprofile: %w", err)
			}
			runtime.SetMutexProfileFraction(0)
		}
		return nil
	}, nil
}

// writeNamedProfile dumps one of the runtime's named profiles to path.
func writeNamedProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("runtime profile %q not found", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.WriteTo(f, 0)
}

// FirstError returns the first non-nil error, letting commands
// validate several flags in one statement.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
