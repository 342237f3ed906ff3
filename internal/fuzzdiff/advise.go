package fuzzdiff

import (
	"context"
	"fmt"
	"reflect"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// adviseFuzzOptions keeps advisor runs cheap enough for fuzz rounds:
// a handful of steps with small probe budgets still exercises every
// intervention kind on the generated netlists.
func adviseFuzzOptions(seed int64) advise.Options {
	return advise.Options{
		Target:     0.95,
		MaxSteps:   3,
		Patterns:   64,
		Backtracks: 64,
		Probes:     16,
		Candidates: 6,
		Seed:       uint64(seed)*2 + 1,
		Workers:    1,
		Metrics:    telemetry.NewRegistry(),
	}
}

// CheckAdvise cross-checks the DFT advisor against the structural and
// simulation oracles: the instrumented netlist it emits must pass
// Lint, round-trip through .bench encode/decode, and grade a collapsed
// fault universe identically across backends and worker counts under
// the plan's partial-scan view; and the whole run must be a pure
// function of its seed. A nil result means every oracle agrees.
func CheckAdvise(ctx context.Context, c *logic.Circuit, seed int64) (*Divergence, error) {
	opt := adviseFuzzOptions(seed)
	plan, err := advise.Run(ctx, c, opt)
	if err != nil {
		return nil, err
	}

	// Purity: the plan must be a deterministic function of the seed.
	plan2, err := advise.Run(ctx, c, adviseFuzzOptions(seed))
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(plan, plan2) {
		return adviseDivergence(c, seed,
			"advise is not a pure function of its seed: two identical runs disagree"), nil
	}

	// The instrumented netlist must be structurally sound and must
	// survive .bench encode/decode unchanged.
	mod, err := logic.ParseBenchString("advised", plan.Bench)
	if err != nil {
		return adviseDivergence(c, seed, "plan netlist does not parse: "+err.Error()), nil
	}
	if ds := Lint(mod); HasErrors(ds) {
		return adviseDivergence(c, seed, "plan netlist fails lint: "+Errors(ds)[0].String()), nil
	}
	back, err := logic.ParseBenchString("advised", logic.BenchString(mod))
	if err != nil {
		return adviseDivergence(c, seed, "re-emitted plan netlist does not parse: "+err.Error()), nil
	}
	if logic.CanonicalBench(back) != logic.CanonicalBench(mod) {
		return adviseDivergence(c, seed, "plan netlist does not round-trip through .bench"), nil
	}
	if plan.ChainBench != "" {
		chain, err := logic.ParseBenchString("chained", plan.ChainBench)
		if err != nil {
			return adviseDivergence(c, seed, "chain netlist does not parse: "+err.Error()), nil
		}
		if ds := Lint(chain); HasErrors(ds) {
			return adviseDivergence(c, seed, "chain netlist fails lint: "+Errors(ds)[0].String()), nil
		}
	}

	// Grading invariance on the instrumented netlist under the plan's
	// view: every backend × worker cell must agree with the serial
	// baseline fault for fault.
	var scanned []int
	for _, name := range plan.Scanned {
		n, ok := mod.NetByName(name)
		if !ok {
			return adviseDivergence(c, seed, fmt.Sprintf("scanned element %q missing from plan netlist", name)), nil
		}
		scanned = append(scanned, n)
	}
	view := atpg.PrimaryView(mod)
	if len(scanned) > 0 {
		view = atpg.PartialScanView(mod, scanned)
	}
	faults := fault.Collapse(mod).Reps
	if len(faults) == 0 {
		return nil, nil
	}
	pats := RandomPatterns(len(view.Inputs), 48, seed^0x51AF3C21)
	cells := []SimConfig{
		Baseline(),
		{Backend: fault.BackendParallel, Workers: 1, Drop: fault.DropOn},
		{Backend: fault.BackendParallel, Workers: 4, Drop: fault.DropOn},
		{Backend: fault.BackendCPT, Workers: 2, Drop: fault.DropOff},
	}
	var want *fault.Result
	for i, cell := range cells {
		got, err := runViewConfig(ctx, mod, view, faults, pats, cell)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			want = got
			continue
		}
		for fi := range faults {
			if want.Detected[fi] != got.Detected[fi] {
				d := adviseDivergence(c, seed,
					fmt.Sprintf("fault %s on the instrumented netlist: detected=%v under %v, %v under %v",
						faults[fi].Name(mod), want.Detected[fi], cells[0], got.Detected[fi], cell))
				d.Base, d.Other = cells[0], cell
				return d, nil
			}
		}
	}
	return nil, nil
}

// runViewConfig is runConfig with an explicit tester view — the shape
// advise-instrumented netlists are graded under.
func runViewConfig(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault, pats [][]bool, sc SimConfig) (*fault.Result, error) {
	return fault.Simulate(ctx, c, faults, pats, fault.Options{
		Backend: sc.Backend,
		Workers: sc.Workers,
		Drop:    sc.Drop,
		View:    view,
	})
}

// adviseDivergence packages an advise-kind finding. The seed replays
// the whole advisor run, so no stimulus minimization applies.
func adviseDivergence(c *logic.Circuit, seed int64, detail string) *Divergence {
	return &Divergence{Kind: "advise", Seed: seed, Circuit: c, Detail: detail}
}
