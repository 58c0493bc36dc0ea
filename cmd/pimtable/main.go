// Command pimtable derives and prints the complete state transition
// tables of the PIM cache protocol (the tables the paper defers to
// Matsumoto's ICOT TR-327), reconstructed empirically from the
// implementation: a breadth-first search over two caches holding one
// block (a read, a write or an eviction on either PE) finds every
// (PE0, PE1) state pair the protocol can reach, and each row applies one
// processor operation on PE0.
//
// Usage:
//
//	pimtable                  # PIM protocol
//	pimtable -protocol illinois
//	pimtable -protocol all    # every registered protocol (the ablation)
//
// Each row is derived on a fresh two-cache system, rebuilt from the
// search's path to its pair.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/obs"
)

// renderAll renders the transition-table ablation: one section per
// registered protocol, in registry (enum) order, so a protocol added to
// the cache package automatically appears here. ph gets one derivation
// phase per protocol for the manifest timing breakdown.
func renderAll(ph *obs.Phases) (string, int) {
	var sb strings.Builder
	total := 0
	for i, p := range cache.Protocols() {
		sp := ph.Start("derive/" + p.String())
		rows := cache.DeriveTransitions(p)
		sp.End()
		if i > 0 {
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%s protocol: %d derived transitions\n", p, len(rows))
		sb.WriteString(cache.FormatTransitions(rows))
		total += len(rows)
	}
	return sb.String(), total
}

func main() {
	proto := flag.String("protocol", "pim",
		cliutil.ProtocolFlagHelp()+"; or 'all' for every registered protocol")
	manifest := flag.String("manifest", "", "write a structured run manifest (JSON) to this file")
	run := cliutil.TimeoutFlags(flag.CommandLine)
	flag.Parse()
	if err := cliutil.ValidateDuration("-timeout", run.Timeout); err != nil {
		fmt.Fprintln(os.Stderr, "pimtable:", err)
		os.Exit(2)
	}
	ctx, stopSignals := run.Context()
	defer stopSignals()
	cliutil.AbortOnDone(ctx, 30*time.Second, os.Stderr)
	man := obs.NewManifest("pimtable")
	ph := obs.NewPhases()
	var table string
	var transitions int
	if *proto == "all" {
		table, transitions = renderAll(ph)
		fmt.Printf("transition-table ablation: %d registered protocols, %d transitions\n",
			len(cache.Protocols()), transitions)
		fmt.Println("(local PE0 state x remote PE1 context x processor op; base timing)")
		fmt.Println()
		fmt.Print(table)
	} else {
		p, err := cliutil.ParseProtocol(*proto)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimtable:", err)
			os.Exit(2)
		}
		sp := ph.Start("derive/" + *proto)
		rows := cache.DeriveTransitions(p)
		sp.End()
		transitions = len(rows)
		fmt.Printf("%s protocol: %d derived transitions\n", *proto, transitions)
		fmt.Println("(local PE0 state x remote PE1 context x processor op; base timing)")
		fmt.Println()
		table = cache.FormatTransitions(rows)
		fmt.Print(table)
	}
	if *manifest != "" {
		// The derived table is a deterministic protocol fingerprint:
		// its digest in Extra makes any cross-host divergence in the
		// state machine itself visible to pimreport diff.
		man.Config.Protocol = *proto
		man.Config.Mode = "derive"
		sum := sha256.Sum256([]byte(table))
		man.Extra = map[string]string{
			"transitions":  fmt.Sprint(transitions),
			"table_sha256": obs.HexDigest(sum[:]),
		}
		man.FinishTiming(ph, nil, 0, ph.Elapsed().Seconds())
		if err := man.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "pimtable:", err)
			os.Exit(1)
		}
	}
}
