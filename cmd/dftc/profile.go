package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/signature"
	"dft/internal/telemetry"
)

// cmdProfile runs a fixed, seed-stable workload over one circuit —
// load, SCOAP, random fault grading, ATPG with both engines,
// compaction, signature analysis — and reports where the time goes.
// Every phase is recorded as a telemetry span named profile.<phase>,
// so -stats shows the same breakdown with full counter context and
// -json emits it as a run report.
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed for the workload")
	random := fs.Int("random", 512, "random patterns in the grading phase")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("profile needs one .bench file")
	}
	reg := telemetry.Default()

	type phase struct {
		name    string
		elapsed time.Duration
		note    string
	}
	var phases []phase
	step := func(name string, f func() string) {
		span := reg.StartSpan("profile." + name)
		start := time.Now()
		note := f()
		span.SetDetail(note)
		span.End()
		phases = append(phases, phase{name, time.Since(start), note})
	}

	var d *core.Design
	var loadErr error
	step("load", func() string {
		d, loadErr = loadDesign(fs.Arg(0))
		if loadErr != nil {
			return loadErr.Error()
		}
		return fmt.Sprint(d.Circuit.Stats())
	})
	if loadErr != nil {
		return loadErr
	}

	step("scoap", func() string {
		sum, _ := d.Analyze(1)
		return fmt.Sprint(sum)
	})

	var graded core.TestSet
	step("faultsim", func() string {
		graded = d.RandomTests(*random, *seed)
		return fmt.Sprintf("%d random patterns, coverage %.2f%%", *random, graded.Coverage*100)
	})

	results := map[string]any{}
	var podemSet core.TestSet
	for _, eng := range []struct {
		name   string
		engine atpg.Engine
	}{{"podem", atpg.EnginePodem}, {"dalg", atpg.EngineDAlg}} {
		eng := eng
		step("atpg-"+eng.name, func() string {
			ts := d.Generate(core.GenerateOptions{
				Engine:      eng.engine,
				RandomFirst: *random,
				Seed:        *seed,
			})
			if eng.engine == atpg.EnginePodem {
				podemSet = ts
			}
			results["atpg_"+eng.name+"_coverage"] = ts.RawCover
			results["atpg_"+eng.name+"_patterns"] = len(ts.Patterns)
			return fmt.Sprintf("%d patterns, coverage %.2f%%", len(ts.Patterns), ts.RawCover*100)
		})
	}

	step("compact", func() string {
		kept, _, err := compact.Patterns(context.Background(), d.Circuit, d.View(), d.Faults(),
			podemSet.Patterns, compact.Options{Mode: compact.ModeReverse})
		if err != nil {
			return fmt.Sprintf("error: %v", err)
		}
		results["compact_kept"] = len(kept)
		return fmt.Sprintf("%d -> %d patterns", len(podemSet.Patterns), len(kept))
	})

	step("signature", func() string {
		board := &signature.Board{C: d.Circuit, Stimulus: signature.SelfStimulus(d.Circuit, 256)}
		a := signature.NewAnalyzer(16)
		nets := d.Circuit.POs
		if len(nets) > 4 {
			nets = nets[:4]
		}
		sigs := board.GoldenSignatures(a, nets)
		return fmt.Sprintf("%d nets probed over %d cycles", len(sigs), len(board.Stimulus))
	})

	if *jsonOut {
		rep := telemetry.NewReport("dftc", "profile", fs.Arg(0))
		rep.Config = map[string]any{"seed": *seed, "random": *random}
		var total time.Duration
		for _, p := range phases {
			results["phase_"+p.name+"_ns"] = p.elapsed.Nanoseconds()
			total += p.elapsed
		}
		results["total_ns"] = total.Nanoseconds()
		results["faultsim_coverage"] = graded.Coverage
		rep.Results = results
		return rep.Finish(reg).WriteJSON(os.Stdout)
	}

	var total time.Duration
	for _, p := range phases {
		total += p.elapsed
	}
	fmt.Printf("profile of %s (seed %d)\n", fs.Arg(0), *seed)
	fmt.Printf("%-12s %12s %6s  %s\n", "phase", "elapsed", "share", "outcome")
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.elapsed) / float64(total)
		}
		fmt.Printf("%-12s %12s %5.1f%%  %s\n", p.name, p.elapsed.Round(time.Microsecond), share, firstLine(p.note))
	}
	fmt.Printf("%-12s %12s\n", "total", total.Round(time.Microsecond))
	return nil
}

// firstLine trims a multi-line note to its first line for the table.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
