package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pimcache/internal/kl1/word"
	"pimcache/internal/mem"
	"pimcache/internal/probe"
	"pimcache/internal/safeio"
)

// TelemetrySpec holds the probe-layer flags: where the Perfetto timeline
// goes, the interval-metrics window and its CSV export, and how many
// hot-spot blocks to rank. The zero value attaches nothing.
type TelemetrySpec struct {
	Events    string // -events: Perfetto trace-event JSON timeline
	Intervals uint64 // -intervals: metrics window in simulated cycles
	CSV       string // -csv: the interval metrics as CSV (needs -intervals)
	HotSpots  int    // -hotspots: top-K most contended blocks
}

// TelemetryFlags registers -events, -intervals and -hotspots on fs and
// returns the spec they fill (valid after fs.Parse). A command that
// exports the interval metrics also binds -csv to the spec's CSV field.
func TelemetryFlags(fs *flag.FlagSet) *TelemetrySpec {
	var t TelemetrySpec
	fs.StringVar(&t.Events, "events", "", "write a Perfetto trace-event JSON timeline to this file")
	fs.Uint64Var(&t.Intervals, "intervals", 0, "print interval metrics every N simulated cycles")
	fs.IntVar(&t.HotSpots, "hotspots", 0, "print the top-K most contended blocks")
	return &t
}

// On reports whether any consumer is requested.
func (t TelemetrySpec) On() bool {
	return t.Events != "" || t.Intervals > 0 || t.HotSpots > 0
}

// Validate checks the flag values: a non-negative -hotspots, and -csv
// only together with -intervals (which sets the window width).
func (t TelemetrySpec) Validate() error {
	if t.HotSpots < 0 {
		return fmt.Errorf("-hotspots must be non-negative (got %d)", t.HotSpots)
	}
	if t.CSV != "" && t.Intervals == 0 {
		return fmt.Errorf("-csv needs -intervals to set the window width")
	}
	return nil
}

// Telemetry is the set of probe consumers one run feeds.
type Telemetry struct {
	// Sink is the probe sink to attach to the run's machine: nil when no
	// consumer was requested, so an untelemetered run pays nothing.
	Sink probe.Sink

	spec       TelemetrySpec
	eventsFile *os.File
	pf         *probe.Perfetto
	iv         *probe.Intervals
	hs         *probe.HotSpots
}

// Start builds the consumers the spec requests for a machine of pes
// processors with blockWords-word blocks; areaOf classifies a block for
// the hot-spot tables. The -events file is created here, because the
// timeline streams to it while the run executes.
func (t TelemetrySpec) Start(pes, blockWords int, areaOf func(word.Addr) mem.Area) (*Telemetry, error) {
	tel := &Telemetry{spec: t}
	var sinks []probe.Sink
	if t.Events != "" {
		f, err := os.Create(t.Events)
		if err != nil {
			return nil, err
		}
		tel.eventsFile = f
		tel.pf = probe.NewPerfetto(f, pes)
		sinks = append(sinks, tel.pf)
	}
	if t.Intervals > 0 {
		tel.iv = probe.NewIntervals(t.Intervals)
		sinks = append(sinks, tel.iv)
	}
	if t.HotSpots > 0 {
		tel.hs = probe.NewHotSpots(blockWords, areaOf)
		sinks = append(sinks, tel.hs)
	}
	tel.Sink = probe.Multi(sinks...)
	return tel, nil
}

// Report prints the interval table (and writes its -csv file) and the
// hot-spot tables to w, then finishes the -events timeline. Call it once
// the run is over.
func (tel *Telemetry) Report(w io.Writer) error {
	if tel.iv != nil {
		fmt.Fprintln(w, tel.iv.Table())
		if tel.spec.CSV != "" {
			if err := safeio.WriteFile(tel.spec.CSV, tel.iv.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", tel.spec.CSV)
		}
	}
	if tel.hs != nil {
		for _, t := range tel.hs.Table(tel.spec.HotSpots) {
			fmt.Fprintln(w, t)
		}
	}
	if tel.pf != nil {
		if err := tel.pf.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", tel.spec.Events, err)
		}
		if err := tel.eventsFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s — open it at https://ui.perfetto.dev\n", tel.spec.Events)
	}
	return nil
}
