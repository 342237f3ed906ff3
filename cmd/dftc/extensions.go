package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dft/internal/atpg"
	"dft/internal/bridge"
	"dft/internal/cmos"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/pipeline"
	"dft/internal/seqatpg"
	"dft/internal/telemetry"
)

// cmdBridge grades a stuck-at test set against a sampled bridging-fault
// universe.
func cmdBridge(args []string) error {
	fs := flag.NewFlagSet("bridge", flag.ContinueOnError)
	limit := fs.Int("limit", 200, "bridge pairs to sample")
	window := fs.Int("window", 1, "level-adjacency window")
	seed := fs.Int64("seed", 9, "sampling seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("bridge needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	gen := d.Generate(defaultGenOptions())
	rng := rand.New(rand.NewSource(*seed))
	bridges := bridge.Universe(d.Circuit, *window, *limit, rng)
	res := bridge.Grade(d.Circuit, bridges, gen.Patterns)
	fmt.Printf("stuck-at coverage of generated set: %.2f%%\n", gen.RawCover*100)
	fmt.Printf("bridging faults detected: %d/%d (%.1f%%)\n",
		res.Detected, res.Total, res.Coverage()*100)
	return nil
}

// cmdCMOS reports stuck-open behavior and two-pattern coverage.
func cmdCMOS(args []string) error {
	fs := flag.NewFlagSet("cmos", flag.ContinueOnError)
	seed := fs.Int64("seed", 5, "search seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cmos needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	u := cmos.Universe(d.Circuit)
	if len(u) == 0 {
		return fmt.Errorf("no NAND/NOR/NOT gates: the stuck-open model has nothing to do")
	}
	rng := rand.New(rand.NewSource(*seed))
	det, gen := cmos.GradeTwoPattern(d.Circuit, u, rng)
	fmt.Printf("stuck-open universe: %d faults\n", len(u))
	fmt.Printf("two-pattern tests generated: %d, detecting: %d\n", gen, det)
	return nil
}

// cmdSeqTest runs bounded time-frame-expansion ATPG on an unscanned
// sequential circuit.
func cmdSeqTest(args []string) error {
	fs := flag.NewFlagSet("seqtest", flag.ContinueOnError)
	frames := fs.Int("frames", 8, "maximum unrolling depth")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("seqtest needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if !d.Circuit.IsSequential() {
		return fmt.Errorf("seqtest needs a sequential circuit; use atpg for combinational ones")
	}
	cl := fault.CollapseEquiv(d.Circuit, fault.Universe(d.Circuit))
	det, depths := seqatpg.CoverageWithinFrames(d.Circuit, cl.Reps, seqatpg.Config{MaxFrames: *frames})
	fmt.Printf("faults testable within %d frames: %d/%d\n", *frames, det, len(cl.Reps))
	for depth := 1; depth <= *frames; depth++ {
		if n := depths[depth]; n > 0 {
			fmt.Printf("  depth %2d: %d faults\n", depth, n)
		}
	}
	return nil
}

// cmdDiagnose builds (or loads) a compact binary fault dictionary over
// the collapsed fault list and optionally diagnoses an observed
// failing signature or an injected fault against it.
func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	var spec pipeline.Diagnose
	fs.IntVar(&spec.Patterns, "patterns", pipeline.DefaultDiagnosePatterns, "random patterns for the dictionary")
	fs.Int64Var(&spec.Seed, "seed", pipeline.DefaultSeed, "pattern seed")
	fs.BoolVar(&spec.Scan, "scan", false, "assume full scan view")
	fs.StringVar(&spec.Backend, "engine", pipeline.DefaultBackend, "grading backend: auto, parallel, cpt or serial")
	fs.IntVar(&spec.Workers, "workers", 0, "grading workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the build after this long (0 = no limit)")
	fs.StringVar(&spec.CompactMode, "compact", pipeline.DefaultDiagnoseCompact, "compact the pattern set first: off, reverse or full")
	fs.BoolVar(&spec.Full, "full", false, "also store the per-output full-response tier")
	save := fs.String("save", "", "write the dictionary to this file")
	load := fs.String("load", "", "load a saved dictionary instead of building")
	fs.StringVar(&spec.Inject, "inject", "", `diagnose an injected fault, e.g. "g12 s-a-0"`)
	fs.StringVar(&spec.Signature, "signature", "", "diagnose an observed pass/fail string ('1' = pattern failed)")
	fs.IntVar(&spec.Top, "top", pipeline.DefaultTop, "ranked candidates to print")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("diagnose needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		dict, err := diagnose.Decode(f)
		f.Close()
		if err != nil {
			return err
		}
		spec.Dictionary = func(string, func() (pipeline.DictBuild, error)) (pipeline.DictBuild, bool, error) {
			return pipeline.DictBuild{Dict: dict}, true, nil
		}
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	out, rep, err := spec.Run(ctx, d.Circuit, telemetry.Default())
	if err != nil {
		return gaveUp("diagnose", fs.Arg(0), *timeout, err)
	}
	dict := out.Dict
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := dict.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *jsonOut {
		return writeReport(rep, fs.Arg(0))
	}

	fmt.Printf("faults: %d collapsed of %d total, patterns: %d\n",
		len(out.Classes.Reps), len(out.Classes.ClassOf), dict.NumPats)
	if cst := out.Compaction; cst != nil {
		fmt.Printf("compact   : patterns %d -> %d (%.1fx)\n", cst.PatternsIn, cst.PatternsOut, cst.Ratio)
	}
	bytesLine := fmt.Sprintf("dictionary: %d bytes compact", dict.CompactBytes())
	if dict.HasFull() {
		bytesLine += fmt.Sprintf(" + %d bytes full-response", dict.FullBytes())
	}
	fmt.Println(bytesLine)
	r := dict.Resolution()
	fmt.Printf("diagnosis classes: %d (mean size %.2f, max %d, invisible %d)\n",
		r.Classes, r.MeanSize, r.MaxSize, r.Undetected)
	sig := out.Observed
	switch {
	case spec.Inject != "":
		fmt.Printf("injected  : %s, %d/%d patterns fail\n", out.Injected.Name(out.Circuit), sig.Weight(), sig.N)
	case spec.Signature != "":
		fmt.Printf("observed  : %d/%d patterns fail\n", sig.Weight(), sig.N)
	}
	for i, cand := range out.Ranked {
		fmt.Printf("  #%-2d d=%-3d %s\n", i+1, cand.Distance, cand.Fault.Name(out.Circuit))
	}
	return nil
}

func defaultGenOptions() core.GenerateOptions {
	return core.GenerateOptions{Engine: atpg.EnginePodem, RandomFirst: 128, Seed: 1}
}
