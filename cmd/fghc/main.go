// Command fghc compiles and runs a Flat Guarded Horn Clauses program on
// the simulated PIM cluster. The program must define main/0; its output
// (print/1, println/1) goes to stdout.
//
// Usage:
//
//	fghc program.fghc
//	fghc -pes 4 -stats program.fghc
//	echo 'main :- true | println(hello).' | fghc -
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pimcache/internal/cache"
	"pimcache/internal/cliutil"
	"pimcache/internal/kl1/compile"
	"pimcache/internal/kl1/emulator"
	"pimcache/internal/machine"
)

func main() {
	var (
		pes       = flag.Int("pes", 8, "number of processing elements")
		showStats = flag.Bool("stats", false, "print execution and bus statistics")
		maxSteps  = flag.Uint64("maxsteps", 0, "abort after N machine steps (0 = unlimited)")
		heapWords = flag.Int("heap", 8<<20, "heap area size in words")
		dumpAsm   = flag.Bool("S", false, "print the compiled abstract-machine code and exit")
		useGC     = flag.Bool("gc", false, "enable stop-and-copy garbage collection (semispace heap)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fghc [flags] program.fghc  (use - for stdin)")
		os.Exit(2)
	}
	mcfg := machine.DefaultConfig()
	mcfg.PEs, mcfg.Layout.HeapWords = *pes, *heapWords
	mcfg.Cache.Options = cache.OptionsAll()
	if err := cliutil.FirstError(cliutil.ValidatePEs(*pes), mcfg.Validate()); err != nil {
		fmt.Fprintln(os.Stderr, "fghc:", err)
		os.Exit(2)
	}
	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fghc:", err)
		os.Exit(1)
	}

	if *dumpAsm {
		im, err := compile.Source(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fghc:", err)
			os.Exit(1)
		}
		fmt.Print(im.Disassemble())
		return
	}

	ecfg := emulator.DefaultConfig()
	ecfg.EnableGC = *useGC
	cl, res, err := emulator.RunSource(string(src), mcfg, ecfg, *maxSteps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fghc:", err)
		if errors.Is(err, emulator.ErrMachineConfig) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	fmt.Print(res.Output)
	if res.Failed {
		fmt.Fprintln(os.Stderr, "fghc: program failed:", res.FailReason)
		os.Exit(1)
	}
	if res.HitStepLimit {
		fmt.Fprintln(os.Stderr, "fghc: step limit exceeded")
		os.Exit(1)
	}
	if res.Floating > 0 {
		fmt.Fprintf(os.Stderr, "fghc: warning: %d goals still suspended (deadlock)\n", res.Floating)
	}
	if *showStats {
		bs := cl.Machine.BusStats()
		cs := cl.Machine.CacheStats()
		fmt.Fprintf(os.Stderr,
			"reductions %d, suspensions %d, instructions %d, refs %d, bus cycles %d, miss ratio %.4f\n",
			res.Emu.Reductions, res.Emu.Suspensions, res.Emu.Instructions,
			cs.TotalRefs(), bs.TotalCycles, cs.MissRatio())
		if *useGC {
			g := cl.Shared.GCStats()
			fmt.Fprintf(os.Stderr, "gc: %d collections, %d words copied\n",
				g.Collections, g.WordsCopied)
		}
	}
}
