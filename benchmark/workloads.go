package main

import "strconv"

// input is one trace file a workload's set-up prepares: a synthetic
// stream (pimtrace synth) or a live KL1 recording (pimtrace record).
type input struct {
	Synth  string // synth -kind; empty for a live recording
	Bench  string // record -bench
	Scale  int    // record -scale
	PEs    int
	Events int // synth -events
}

// name labels the input in errors and file names.
func (in input) name() string {
	if in.Synth != "" {
		return in.Synth + strconv.Itoa(in.PEs)
	}
	return in.Bench + strconv.Itoa(in.Scale)
}

// args are the pimtrace arguments that write the input to path.
func (in input) args(seed int64, path string) []string {
	if in.Synth != "" {
		return []string{"synth", "-kind", in.Synth, "-pes", strconv.Itoa(in.PEs),
			"-events", strconv.Itoa(in.Events), "-seed", strconv.FormatInt(seed, 10), "-o", path}
	}
	return []string{"record", "-bench", in.Bench, "-scale", strconv.Itoa(in.Scale),
		"-pes", strconv.Itoa(in.PEs), "-o", path}
}

// evalSpec selects what a pimbench run regenerates.
type evalSpec struct {
	Bench string // -bench; empty runs all four programs
	Table int    // -table; 0 regenerates everything
}

func (s evalSpec) args() []string {
	a := []string{"-quick", "-jobs", "1"}
	if s.Bench != "" {
		a = append(a, "-bench", s.Bench)
	}
	if s.Table != 0 {
		a = append(a, "-table", strconv.Itoa(s.Table))
	}
	return a
}

// workload is one set of inputs and the command that consumes them.
// Replay workloads run `pimtrace replay` over their single input; the
// evaluation workload runs pimbench, and its inputs are the quick-scale
// recordings that pimbench makes internally, prepared by the set-up so
// the traced run can split their replay into layers.
type workload struct {
	Name      string
	Why       string
	Key       string // entry in testdata/expected.json
	Inputs    []input
	Protocol  string    // replay -protocol (the inputs' protocol for the evaluation)
	Eval      *evalSpec // nil for replay workloads
	SetupReps int       // set-up preparations per run; setup_s is their median
}

// seeded reports whether the inputs depend on --seed (live recordings
// do not: a KL1 program records the same stream every time).
func (w workload) seeded() bool {
	for _, in := range w.Inputs {
		if in.Synth != "" {
			return true
		}
	}
	return false
}

// workloads lists the benchmark's workloads. Every one runs under the
// paper's base cache (4 Kwords, 4-word blocks, 4-way, all optimized
// commands on). smoke shrinks each to about 200k references for the
// package test; the code path and the checks stay the same.
func workloads(smoke bool) []workload {
	ws := []workload{
		{
			Name:      "replay-or8",
			Why:       "35% misses on 8 PEs: bus fetch, snoops, presence filters, victim write-back and the invalidate FSM do most of the work",
			Inputs:    []input{{Synth: "orparallel", PEs: 8, Events: 8_000_000}},
			Protocol:  "pim",
			SetupReps: 5,
		},
		{
			Name:      "replay-semi8",
			Why:       "a real KL1 program with 2.1% misses: per-reference costs (file read, CRC32C, SHA-256, decode, dispatch, cache hits) dominate",
			Inputs:    []input{{Bench: "Semi", Scale: 256, PEs: 8}},
			Protocol:  "pim",
			SetupReps: 3,
		},
		{
			Name:      "replay-ring16-dragon",
			Why:       "no misses, every send an update broadcast to up to 15 snoopers under the write-update protocol",
			Inputs:    []input{{Synth: "ring", PEs: 16, Events: 12_000_000}},
			Protocol:  "dragon",
			SetupReps: 5,
		},
		{
			Name:      "eval-quick",
			Why:       "the whole quick evaluation: KL1 front end, live emulation and recording, and many replays that each build a fresh machine",
			Inputs:    quickInputs("Tri", "Semi", "Puzzle", "Pascal"),
			Protocol:  "pim",
			Eval:      &evalSpec{},
			SetupReps: 5,
		},
	}
	for i := range ws {
		ws[i].Key = ws[i].Name
	}
	if !smoke {
		return ws
	}
	ws[0].Inputs[0].Events = 200_000
	ws[1].Inputs[0].Scale = 32
	ws[2].Inputs[0].Events = 200_000
	ws[3].Inputs = quickInputs("Pascal")
	ws[3].Eval = &evalSpec{Bench: "Pascal", Table: 4}
	for i := range ws {
		ws[i].Key += "/smoke"
		ws[i].SetupReps = 2
	}
	return ws
}

// quickInputs are the 8-PE recordings `pimbench -quick` makes of the
// named programs.
func quickInputs(benches ...string) []input {
	var ins []input
	for _, b := range benches {
		ins = append(ins, input{Bench: b, Scale: quickScale(b), PEs: 8})
	}
	return ins
}
