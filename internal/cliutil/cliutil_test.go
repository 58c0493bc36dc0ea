package cliutil

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"pimcache/internal/bus"
	"pimcache/internal/cache"
)

func TestValidatePEs(t *testing.T) {
	for _, pes := range []int{1, 2, 8, bus.MaxPEs} {
		if err := ValidatePEs(pes); err != nil {
			t.Errorf("ValidatePEs(%d) = %v, want nil", pes, err)
		}
	}
	for _, pes := range []int{0, -1, -8, bus.MaxPEs + 1} {
		if err := ValidatePEs(pes); err == nil {
			t.Errorf("ValidatePEs(%d) = nil, want error", pes)
		}
	}
}

func TestValidateCount(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		if err := ValidateCount("-jobs", n); err != nil {
			t.Errorf("ValidateCount(-jobs, %d) = %v, want nil", n, err)
		}
	}
	if err := ValidateCount("-scale", -1); err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("ValidateCount(-scale, -1) = %v, want an error naming -scale", err)
	}
}

func TestValidateBlock(t *testing.T) {
	for _, block := range []int{1, 2, 4, 8, 16, 1024} {
		if err := ValidateBlock(block); err != nil {
			t.Errorf("ValidateBlock(%d) = %v, want nil", block, err)
		}
	}
	for _, block := range []int{0, -4, 3, 6, 12, 1000} {
		if err := ValidateBlock(block); err == nil {
			t.Errorf("ValidateBlock(%d) = nil, want error", block)
		}
	}
}

func TestValidateBusWidth(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		if err := ValidateBusWidth(width); err != nil {
			t.Errorf("ValidateBusWidth(%d) = %v, want nil", width, err)
		}
	}
	for _, width := range []int{0, -1} {
		if err := ValidateBusWidth(width); err == nil || !strings.Contains(err.Error(), "-buswidth") {
			t.Errorf("ValidateBusWidth(%d) = %v, want an error naming -buswidth", width, err)
		}
	}
}

// TestBuildCacheConfigOptions: -opts takes every cache.OptionSets name
// in lower case, and nothing else.
func TestBuildCacheConfigOptions(t *testing.T) {
	for _, set := range cache.OptionSets {
		name := strings.ToLower(set.Name)
		cfg, err := BuildCacheConfig(4<<10, 4, 4, name, "pim")
		if err != nil || cfg.Options != set.Opts {
			t.Errorf("BuildCacheConfig(-opts %q) = %v, %v; want %v", name, cfg.Options, err, set.Opts)
		}
	}
	for _, name := range []string{"", "ALL", "everything", "heap,goal"} {
		if _, err := BuildCacheConfig(4<<10, 4, 4, name, "pim"); err == nil || !strings.Contains(err.Error(), "-opts") {
			t.Errorf("BuildCacheConfig(-opts %q) = %v, want an error naming -opts", name, err)
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]cache.Protocol{
		"pim":          cache.ProtocolPIM,
		"illinois":     cache.ProtocolIllinois,
		"writethrough": cache.ProtocolWriteThrough,
		"moesi":        cache.ProtocolMOESI,
		"dragon":       cache.ProtocolDragon,
		"adaptive":     cache.ProtocolAdaptive,
	} {
		got, err := ParseProtocol(name)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"", "PIM", "mesi"} {
		if _, err := ParseProtocol(name); err == nil {
			t.Errorf("ParseProtocol(%q) = nil error, want error", name)
		}
	}
}

// TestParseProtocolAgreesWithRegistry pins the registry round trip:
// every registered protocol name parses back to its own enum value, and
// the help/error text names each of them — so a protocol registered in
// the cache package cannot be silently unreachable from the CLI.
func TestParseProtocolAgreesWithRegistry(t *testing.T) {
	for _, p := range cache.Protocols() {
		got, err := ParseProtocol(p.Name())
		if err != nil || got != p.ID() {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", p.Name(), got, err, p.ID())
		}
		if !strings.Contains(ProtocolFlagHelp(), p.Name()) {
			t.Errorf("ProtocolFlagHelp() %q does not mention %q", ProtocolFlagHelp(), p.Name())
		}
		_, err = ParseProtocol("no-such-protocol")
		if err == nil || !strings.Contains(err.Error(), p.Name()) {
			t.Errorf("ParseProtocol error %v does not mention %q", err, p.Name())
		}
	}
}

func TestBuildCacheConfig(t *testing.T) {
	cfg, err := BuildCacheConfig(4<<10, 4, 4, "all", "illinois")
	if err != nil {
		t.Fatalf("BuildCacheConfig(base) = %v", err)
	}
	if cfg.SizeWords != 4<<10 || cfg.BlockWords != 4 || cfg.Ways != 4 ||
		cfg.LockEntries != 4 || cfg.Protocol != cache.ProtocolIllinois ||
		cfg.Options != cache.OptionsAll() {
		t.Fatalf("BuildCacheConfig(base) = %+v", cfg)
	}

	bad := []struct {
		name              string
		size, block, ways int
		opts, proto       string
	}{
		{"bad opts", 4 << 10, 4, 4, "bogus", "pim"},
		{"bad protocol", 4 << 10, 4, 4, "all", "bogus"},
		{"non-pow2 block", 4 << 10, 3, 4, "all", "pim"},
		{"non-pow2 sets", 3000, 4, 4, "all", "pim"},
		{"size not divisible", 100, 8, 4, "all", "pim"},
		{"zero size", 0, 4, 4, "all", "pim"},
		{"negative ways", 4 << 10, 4, -1, "all", "pim"},
	}
	for _, c := range bad {
		if _, err := BuildCacheConfig(c.size, c.block, c.ways, c.opts, c.proto); err == nil {
			t.Errorf("%s: BuildCacheConfig(%d, %d, %d, %q, %q) = nil error, want error",
				c.name, c.size, c.block, c.ways, c.opts, c.proto)
		}
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil, nil, nil); err != nil {
		t.Errorf("FirstError(nil...) = %v", err)
	}
	want := errors.New("boom")
	if err := FirstError(nil, want, errors.New("later")); err != want {
		t.Errorf("FirstError returned %v, want the first error", err)
	}
}

// TestTimeoutFlagsDefinesTimeoutOnly: -timeout is the only run bound
// every command shares; -stall belongs to the one command that pets a
// watchdog (pimtrace replay).
func TestTimeoutFlagsDefinesTimeoutOnly(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	TimeoutFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != 1 || names[0] != "timeout" {
		t.Errorf("TimeoutFlags defines %v, want [timeout]", names)
	}
}
