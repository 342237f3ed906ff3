package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"strconv"
	"strings"

	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Fuzz runs the differential fuzzer (`dftc fuzz`, kind fuzz): each
// seed generates a circuit and cross-checks every kernel, execution
// width and fault-simulation backend against the baseline oracle. The
// first divergence stops the sweep.
type Fuzz struct {
	Rounds   int    // sweep seeds 1..Rounds
	Seeds    string // comma-separated explicit seeds; overrides Rounds
	Patterns int    // random patterns per round
}

// FuzzResult is a finished sweep.
type FuzzResult struct {
	Rounds     int                  // rounds run
	Divergence *fuzzdiff.Divergence // nil on a clean sweep
}

// parse returns the explicit seed list, nil when the sweep is 1..Rounds.
func (s Fuzz) parse() ([]int64, error) {
	if err := negative(count{"rounds", s.Rounds}, count{"patterns", s.Patterns}); err != nil {
		return nil, err
	}
	if s.Seeds == "" {
		return nil, nil
	}
	var list []int64
	for _, f := range strings.Split(s.Seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in seeds", f)
		}
		list = append(list, v)
	}
	return list, nil
}

// Validate checks the spec without running it.
func (s Fuzz) Validate() error {
	_, err := s.parse()
	return err
}

// Run sweeps the seeds, honoring ctx between rounds. The fuzzer
// generates its own circuits, so the circuit argument is unused.
func (s Fuzz) Run(ctx context.Context, _ *logic.Circuit, reg *telemetry.Registry) (*FuzzResult, *telemetry.Report, error) {
	seeds, err := s.parse()
	if err != nil {
		return nil, nil, err
	}
	rounds := cmp.Or(s.Rounds, DefaultFuzzRounds)
	if seeds != nil {
		rounds = len(seeds)
	}
	patterns := cmp.Or(s.Patterns, DefaultFuzzPatterns)
	// Rounds progress: one tick per completed round, from a span that
	// marks the sweep as the run's active phase.
	rctx, span := telemetry.StartSpanCtx(ctx, reg, "fuzz.rounds")
	defer span.End()
	prog := reg.Progress("fuzz.rounds.progress")
	prog.SetTotal(int64(rounds))
	out := &FuzzResult{}
	for i := 0; i < rounds; i++ {
		seed := int64(i + 1)
		if seeds != nil {
			seed = seeds[i]
		}
		if err := rctx.Err(); err != nil {
			return nil, nil, err
		}
		out.Rounds++
		out.Divergence = fuzzdiff.Round(fuzzdiff.ShapeConfig(seed), seed, fuzzdiff.RoundOptions{Patterns: patterns})
		prog.Inc()
		if out.Divergence != nil {
			break
		}
	}

	rep := newReport("fuzz", map[string]any{
		"rounds": cmp.Or(s.Rounds, DefaultFuzzRounds), "seeds": s.Seeds,
		"patterns": patterns, "configs": len(fuzzdiff.Matrix()),
	})
	rep.Results = map[string]any{"rounds": out.Rounds, "divergences": 0}
	if div := out.Divergence; div != nil {
		rep.Results["divergences"] = 1
		rep.Results["repro"] = div.Repro()
		rep.Results["seed"] = div.Seed
	}
	return out, rep, nil
}
