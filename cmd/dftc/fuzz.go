package main

import (
	"context"
	"flag"
	"fmt"

	"dft/internal/fuzzdiff"
	"dft/internal/pipeline"
	"dft/internal/telemetry"
)

// cmdFuzz runs the differential fuzzer from the command line: each
// seed generates a circuit, lints it, and cross-checks every kernel,
// execution width and fault-simulation backend against the baseline
// oracle. The first divergence stops the run and prints a replayable
// repro; a clean sweep exits 0.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	var spec pipeline.Fuzz
	fs.IntVar(&spec.Rounds, "rounds", pipeline.DefaultFuzzRounds, "fuzz seeds 1..N")
	fs.StringVar(&spec.Seeds, "seeds", "", "comma-separated explicit seeds (overrides -rounds; use to replay a repro)")
	fs.IntVar(&spec.Patterns, "patterns", pipeline.DefaultFuzzPatterns, "random patterns per round")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz takes no positional arguments")
	}
	// A zero spec field means the default, but a zero flag asks for
	// an empty sweep.
	if spec.Rounds == 0 && spec.Seeds == "" {
		return fmt.Errorf("-rounds must be positive, got 0")
	}
	out, rep, err := spec.Run(context.Background(), nil, telemetry.Default())
	if err != nil {
		return err
	}
	div := out.Divergence
	switch {
	case *jsonOut:
		if err := writeReport(rep, ""); err != nil {
			return err
		}
	case div != nil:
		fmt.Print(div.Repro())
	default:
		fmt.Printf("fuzz: %d rounds across %d configurations, 0 divergences\n", out.Rounds, len(fuzzdiff.Matrix()))
	}
	if div != nil {
		return fmt.Errorf("divergence at seed %d after %d rounds", div.Seed, out.Rounds)
	}
	return nil
}
