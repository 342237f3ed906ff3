package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"dft/internal/atpg"
	"dft/internal/bridge"
	"dft/internal/cmos"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
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
	patterns := fs.Int("patterns", 64, "random patterns for the dictionary")
	seed := fs.Int64("seed", 6, "pattern seed")
	scan := fs.Bool("scan", false, "assume full scan view")
	engine := fs.String("engine", "auto", "grading backend: auto, parallel, cpt or serial")
	workers := fs.Int("workers", 0, "grading workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the build after this long (0 = no limit)")
	compactFlag := fs.String("compact", "reverse", "compact the pattern set first: off, reverse, static, dynamic or full")
	full := fs.Bool("full", false, "also store the per-output full-response tier")
	save := fs.String("save", "", "write the dictionary to this file")
	load := fs.String("load", "", "load a saved dictionary instead of building")
	inject := fs.String("inject", "", `diagnose an injected fault, e.g. "g12 s-a-0"`)
	sigStr := fs.String("signature", "", "diagnose an observed pass/fail string ('1' = pattern failed)")
	top := fs.Int("top", 10, "ranked candidates to print")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("diagnose needs one .bench file")
	}
	if *inject != "" && *sigStr != "" {
		return fmt.Errorf("give -inject or -signature, not both")
	}
	backend, err := fault.ParseBackend(*engine)
	if err != nil {
		return err
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return err
		}
	}
	view := d.View()
	// Diagnose over the collapsed representatives: structurally
	// equivalent faults can never be told apart at the pins, so grading
	// the raw universe would only pad every dictionary row and class
	// with known duplicates.
	cl := fault.CollapseEquiv(d.Circuit, fault.Universe(d.Circuit))
	dopt := diagnose.Options{
		Backend: backend,
		Workers: *workers,
		View:    fault.View{Inputs: view.Inputs, Outputs: view.Outputs},
		Full:    *full,
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()

	var dict *diagnose.Dictionary
	var cst *compact.Stats
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		dict, err = diagnose.Decode(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := dict.Attach(d.Circuit, dopt); err != nil {
			return err
		}
	} else {
		mode, err := compact.ParseMode(*compactFlag)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed))
		pats := make([][]bool, *patterns)
		for i := range pats {
			p := make([]bool, len(view.Inputs))
			for j := range p {
				p[j] = rng.Intn(2) == 1
			}
			pats[i] = p
		}
		if mode.Enabled() {
			pats, cst, err = compact.Patterns(ctx, d.Circuit, view, cl.Reps, pats, compact.Options{
				Mode: mode, Workers: *workers, Seed: *seed,
			})
			if err != nil {
				return err
			}
		}
		dict, err = diagnose.Build(ctx, d.Circuit, cl.Reps, pats, dopt)
		if err != nil {
			return fmt.Errorf("diagnose on %s gave up after -timeout %v: %w", fs.Arg(0), *timeout, err)
		}
	}
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

	// Resolve the observation, if any.
	var sig diagnose.Signature
	var ranked []diagnose.Candidate
	diagnosing := false
	injected := fault.Fault{}
	switch {
	case *inject != "":
		injected, err = fault.ParseFault(*inject)
		if err != nil {
			return err
		}
		if err := injected.Validate(d.Circuit); err != nil {
			return err
		}
		sig, err = dict.ObserveMachine(injected)
		if err != nil {
			return err
		}
		diagnosing = true
	case *sigStr != "":
		sig, err = diagnose.ParseSignature(*sigStr)
		if err != nil {
			return err
		}
		if sig.N > dict.NumPats {
			return fmt.Errorf("signature covers %d patterns, dictionary has %d", sig.N, dict.NumPats)
		}
		diagnosing = true
	}
	if diagnosing {
		ranked = dict.Rank(sig, *top)
	}
	r := dict.Resolution()

	if *jsonOut {
		rep := telemetry.NewReport("dftc", "diagnose", fs.Arg(0))
		rep.Config = map[string]any{
			"patterns": dict.NumPats, "seed": *seed, "scan": *scan,
			"engine": backend.String(), "workers": *workers,
			"compact": *compactFlag, "full": *full,
		}
		rep.Results = map[string]any{
			"universe":        len(cl.ClassOf),
			"collapsed":       len(cl.Reps),
			"dict_faults":     len(dict.Faults),
			"dict_patterns":   dict.NumPats,
			"dict_bytes":      dict.CompactBytes(),
			"dict_full_bytes": dict.FullBytes(),
			"classes":         r.Classes,
			"mean_class":      r.MeanSize,
			"max_class":       r.MaxSize,
			"undetected":      r.Undetected,
		}
		if cst != nil {
			rep.Results["patterns_in"] = cst.PatternsIn
			rep.Results["compact_ratio"] = cst.Ratio
		}
		if diagnosing {
			cands := make([]map[string]any, len(ranked))
			for i, cand := range ranked {
				cands[i] = map[string]any{
					"fault":    cand.Fault.String(),
					"name":     cand.Fault.Name(d.Circuit),
					"distance": cand.Distance,
				}
			}
			rep.Results["candidates"] = cands
			rep.Results["observed_fails"] = sig.Weight()
			rep.Results["observed_patterns"] = sig.N
			if sig.N == dict.NumPats {
				rep.Results["class_size"] = len(dict.Lookup(sig))
			}
		}
		return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
	}

	fmt.Printf("faults: %d collapsed of %d total, patterns: %d\n",
		len(cl.Reps), len(cl.ClassOf), dict.NumPats)
	if cst != nil {
		fmt.Printf("compact   : patterns %d -> %d (%.1fx)\n", cst.PatternsIn, cst.PatternsOut, cst.Ratio)
	}
	bytesLine := fmt.Sprintf("dictionary: %d bytes compact", dict.CompactBytes())
	if dict.HasFull() {
		bytesLine += fmt.Sprintf(" + %d bytes full-response", dict.FullBytes())
	}
	fmt.Println(bytesLine)
	fmt.Printf("diagnosis classes: %d (mean size %.2f, max %d, invisible %d)\n",
		r.Classes, r.MeanSize, r.MaxSize, r.Undetected)
	if diagnosing {
		if *inject != "" {
			fmt.Printf("injected  : %s, %d/%d patterns fail\n", injected.Name(d.Circuit), sig.Weight(), sig.N)
		} else {
			fmt.Printf("observed  : %d/%d patterns fail\n", sig.Weight(), sig.N)
		}
		for i, cand := range ranked {
			fmt.Printf("  #%-2d d=%-3d %s\n", i+1, cand.Distance, cand.Fault.Name(d.Circuit))
		}
	}
	return nil
}

func defaultGenOptions() core.GenerateOptions {
	return core.GenerateOptions{Engine: atpg.EnginePodem, RandomFirst: 128, Seed: 1}
}
