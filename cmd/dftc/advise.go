package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dft/internal/advise"
	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/pipeline"
	"dft/internal/telemetry"
)

// cmdAdvise drives the closed-loop DFT advisor: probe, score, apply
// the cheapest intervention, repeat until the coverage target is met
// or the overhead budget is spent. The plan — every applied step with
// its measured coverage, the scan-chain order, and the instrumented
// netlist — prints as a table, or as machine-readable JSON with
// -json/-out.
func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ContinueOnError)
	builtin := fs.String("builtin", "", "advise a library circuit instead of a file")
	n := fs.Int("n", 0, "library circuit size (with -builtin)")
	var spec pipeline.Advise
	fs.Float64Var(&spec.Target, "target", pipeline.DefaultAdviseTarget, "fault-coverage goal in [0,1]")
	fs.Float64Var(&spec.Budget, "budget", pipeline.DefaultAdviseBudget, "overhead budget as a fraction of circuit size")
	fs.IntVar(&spec.MaxSteps, "max-steps", pipeline.DefaultAdviseMaxSteps, "intervention cap")
	fs.IntVar(&spec.Patterns, "patterns", pipeline.DefaultAdvisePatterns, "random patterns per probe")
	fs.Int64Var(&spec.Seed, "seed", pipeline.DefaultSeed, "master seed; per-iteration probe seeds derive from it")
	fs.IntVar(&spec.Workers, "workers", 0, "fault-sharding workers (0 = all CPUs)")
	fs.StringVar(&spec.Style, "style", pipeline.DefaultStyle, "scan style for chain materialization: lssd or mux")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	out := fs.String("out", "", "also write the plan JSON to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var c *logic.Circuit
	input := *builtin // the report input: the builtin or the file path
	switch {
	case *builtin != "" && fs.NArg() > 0:
		return fmt.Errorf("give -builtin or a .bench file, not both")
	case *builtin != "":
		cc, err := circuits.Builtin(*builtin, *n)
		if err != nil {
			return err
		}
		c = cc
	case fs.NArg() == 1:
		d, err := loadDesign(fs.Arg(0))
		if err != nil {
			return err
		}
		c, input = d.Circuit, fs.Arg(0)
	default:
		return fmt.Errorf("advise needs one .bench file or -builtin name")
	}

	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	plan, rep, err := spec.Run(ctx, c, telemetry.Default())
	if err != nil {
		return gaveUp("advise", input, *timeout, err)
	}

	if *out != "" {
		if err := writePlanJSON(*out, plan); err != nil {
			return err
		}
	}
	if *jsonOut {
		return writeReport(rep, input)
	}

	fmt.Printf("advising %s: %d collapsed faults, target %.2f%%, budget %.0f%% overhead\n",
		plan.Circuit, plan.Faults, 100*plan.Target, 100*plan.Budget)
	fmt.Printf("baseline coverage %.2f%%\n", 100*plan.Baseline)
	if len(plan.Steps) > 0 {
		fmt.Printf("%-4s %-9s %-24s %9s %8s %9s %5s\n",
			"step", "kind", "net", "coverage", "delta", "overhead", "pins")
		for i, s := range plan.Steps {
			net := s.Net
			if len(s.FFs) > 1 {
				net = fmt.Sprintf("%s (+%d more)", s.FFs[0], len(s.FFs)-1)
			}
			fmt.Printf("%-4d %-9s %-24s %8.2f%% %+7.2f%% %8.1f%% %5d\n",
				i+1, s.Kind, net, 100*s.Coverage, 100*s.Delta, 100*s.Overhead, s.Pins)
		}
	}
	fmt.Printf("final coverage %.2f%% after %d steps (%s), overhead %.1f%% (%d GE, %d pins)\n",
		100*plan.Coverage, len(plan.Steps), plan.StopReason,
		100*plan.Overhead, plan.OverheadGates, plan.Pins)
	if len(plan.Scanned) > 0 {
		fmt.Printf("scan chain (%d elements): %v\n", len(plan.Scanned), plan.Scanned)
	}
	if *out != "" {
		fmt.Printf("plan written to %s\n", *out)
	}
	return nil
}

// writePlanJSON dumps the raw plan document (not a run report) so
// downstream tools can apply it without unwrapping telemetry.
func writePlanJSON(path string, plan *advise.Plan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(plan)
}
