package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"pimcache/internal/mem"
)

// Protocol selects the coherence protocol.
type Protocol uint8

const (
	// ProtocolPIM is the paper's five-state protocol: dirty blocks
	// transfer cache-to-cache without updating shared memory (SM state).
	ProtocolPIM Protocol = iota
	// ProtocolIllinois is the four-state baseline: a dirty block supplied
	// to another cache is simultaneously copied back to memory, so both
	// copies become clean and SM is never entered.
	ProtocolIllinois
	// ProtocolWriteThrough is the classic baseline the copy-back designs
	// are measured against: every store goes straight to shared memory
	// (one bus transaction per write) and invalidates other copies;
	// blocks are never dirty, so evictions are free — and so is every
	// optimized command, which all degrade to R/W.
	ProtocolWriteThrough
	// ProtocolMOESI is the five-state invalidate protocol with a
	// distinct Owned state: a dirty block downgraded by a remote read
	// enters O (dirty, shared, owns the write-back) and only the owner
	// supplies data — clean holders assert sharing but shared memory
	// serves the block.
	ProtocolMOESI
	// ProtocolDragon is the write-update protocol: a write to a shared
	// block broadcasts the written word (UP) to the other copies
	// instead of invalidating them, so producer-consumer blocks stay
	// resident in every consumer. Memory is not updated by UP; the
	// writer owns the eventual write-back (Sm, reusing the SM state).
	ProtocolDragon
	// ProtocolAdaptive is Dragon with competitive self-invalidation:
	// each holder counts consecutive received updates per block and
	// drops its copy at the threshold, so migratory blocks degenerate
	// to invalidate behaviour while producer-consumer blocks keep the
	// update behaviour.
	ProtocolAdaptive
)

// String names the protocol (the registry key).
func (p Protocol) String() string {
	if int(p) < len(protocolRegistry) {
		return protocolRegistry[p].name
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// Opt is a bitmask of the optimized memory commands.
type Opt uint8

const (
	// OptDW enables direct write.
	OptDW Opt = 1 << iota
	// OptER enables exclusive read.
	OptER
	// OptRP enables read purge.
	OptRP
	// OptRI enables read invalidate.
	OptRI

	// OptNone disables every optimized command (they degrade to R/W).
	OptNone Opt = 0
	// OptAll enables every optimized command.
	OptAll = OptDW | OptER | OptRP | OptRI
)

// Options enables optimized commands per storage area. The paper's
// Table 4 columns are particular Options values (see the convenience
// constructors below).
type Options struct {
	PerArea [mem.NumAreas]Opt
}

// OptionsNone is the unoptimized cache (Table 4 column "None").
func OptionsNone() Options { return Options{} }

// OptionsHeap enables DW in the heap area only (column "Heap").
func OptionsHeap() Options {
	var o Options
	o.PerArea[mem.AreaHeap] = OptDW
	return o
}

// OptionsGoal enables ER, RP and DW in the goal area only (column
// "Goal").
func OptionsGoal() Options {
	var o Options
	o.PerArea[mem.AreaGoal] = OptER | OptRP | OptDW
	return o
}

// OptionsComm enables RI in the communication area only (column "Comm").
func OptionsComm() Options {
	var o Options
	o.PerArea[mem.AreaComm] = OptRI
	return o
}

// OptionsAll enables each optimization in the area the KL1 runtime uses
// it (column "All"): DW in the heap, ER+RP+DW in the goal area, RI in
// the communication area.
func OptionsAll() Options {
	var o Options
	o.PerArea[mem.AreaHeap] = OptDW
	o.PerArea[mem.AreaGoal] = OptER | OptRP | OptDW
	o.PerArea[mem.AreaComm] = OptRI
	return o
}

// OptionSet is one named column of the paper's Table 4.
type OptionSet struct {
	Name string
	Opts Options
}

// OptionSets are Table 4's columns in order: the unoptimized cache, each
// area's commands alone, and all of them together.
var OptionSets = []OptionSet{
	{"None", OptionsNone()},
	{"Heap", OptionsHeap()},
	{"Goal", OptionsGoal()},
	{"Comm", OptionsComm()},
	{"All", OptionsAll()},
}

// OptionsByName looks up an option set by its lower-case name ("none",
// "heap", "goal", "comm" or "all"), the form command-line flags take.
func OptionsByName(name string) (Options, bool) {
	for _, s := range OptionSets {
		if strings.ToLower(s.Name) == name {
			return s.Opts, true
		}
	}
	return Options{}, false
}

// Enabled reports whether opt is enabled for area.
func (o Options) Enabled(area mem.Area, opt Opt) bool {
	return o.PerArea[area]&opt != 0
}

// Config describes one PE's cache.
type Config struct {
	// SizeWords is the total data capacity in words (paper base: 4K).
	SizeWords int
	// BlockWords is the block size in words (paper base: 4). Must match
	// the bus's configured block size.
	BlockWords int
	// Ways is the set associativity (paper base: 4).
	Ways int
	// LockEntries sizes the lock directory (paper: "one or two entries
	// per directory is needed"; we default to 4 to leave headroom for
	// nested unification locks).
	LockEntries int
	// Options enables the optimized commands per area.
	Options Options
	// Protocol selects the coherence protocol: the paper's PIM protocol
	// or one of the registered baselines (see Protocols).
	Protocol Protocol
	// VerifyDW, when set, checks the direct-write software contract (no
	// remote cache holds the target block) on every applied DW and
	// panics on violation. Tests enable it; it models nothing.
	VerifyDW bool
	// DisableBusFilters, when set, makes the bus fall back to polling
	// every attached snooper and lock unit instead of consulting its
	// presence filters. The filters are a simulator-level acceleration
	// with identical observable results, so like VerifyDW this knob
	// models nothing; the equivalence tests and baseline benchmarks
	// enable it.
	DisableBusFilters bool
	// PoisonBusData, when set, makes the bus scribble its reusable
	// fetch buffer at the start of every transaction (see
	// bus.Config.PoisonFetchData), so any code that illegally retains
	// FetchResult.Data across a transaction reads poison instead of
	// silently stale data. A debug knob that models nothing; the
	// coherence checker and the poison-equivalence tests enable it.
	PoisonBusData bool
	// StatsOnly, when set, runs the cache (and, through machine.New,
	// the bus and memory) without a data plane: no block data is stored,
	// copied or zero-filled, and every value-returning operation yields
	// zero. Coherence decisions in this simulator depend only on
	// addresses, directory states and lock state — never on stored
	// values (DESIGN.md §11) — so cache.Stats, bus.Stats and probe event
	// streams are bit-identical to the data-carrying path. Trace replay
	// writes zeros and discards reads anyway, which makes stats-only the
	// natural replay mode; machines that must return real values (live
	// FGHC runs) refuse to run with it set.
	StatsOnly bool
}

// DefaultConfig is the paper's base cache: 4Kword data, 4-word blocks,
// 4-way set-associative (256 sets), all optimizations off.
func DefaultConfig() Config {
	return Config{
		SizeWords:   4 << 10,
		BlockWords:  4,
		Ways:        4,
		LockEntries: 4,
	}
}

// Sets derives the number of sets.
func (c Config) Sets() int { return c.SizeWords / (c.BlockWords * c.Ways) }

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeWords <= 0 || c.BlockWords <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if bits.OnesCount(uint(c.BlockWords)) != 1 {
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockWords)
	}
	sets := c.Sets()
	if sets <= 0 || sets*c.BlockWords*c.Ways != c.SizeWords {
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-word blocks",
			c.SizeWords, c.Ways, c.BlockWords)
	}
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.LockEntries <= 0 {
		return fmt.Errorf("cache: need at least one lock entry")
	}
	if int(c.Protocol) >= len(protocolRegistry) {
		return fmt.Errorf("cache: unregistered protocol %d", c.Protocol)
	}
	return nil
}

// DirectoryBits estimates the cache's total storage in bits the way the
// paper's Figure 2 x-axis does: a five-byte data word (40 bits) plus the
// address-array overhead of tags and state per block. With these
// assumptions the paper's "four-Kword cache is 190000 bits".
func (c Config) DirectoryBits() int {
	const wordBits = 40 // 5-byte word
	dataBits := c.SizeWords * wordBits
	blocks := c.SizeWords / c.BlockWords
	// Tag: 32-bit word address minus set index and block offset bits,
	// plus 3 state bits per block.
	setBits := bits.TrailingZeros(uint(c.Sets()))
	offBits := bits.TrailingZeros(uint(c.BlockWords))
	tagBits := 32 - setBits - offBits + 3
	return dataBits + blocks*tagBits
}
