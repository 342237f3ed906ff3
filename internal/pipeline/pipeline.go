// Package pipeline is the one job runner behind dftc and dftd. Each
// jobbed kind — FaultSim, ATPG, Diagnose, Advise and Fuzz — has a spec
// whose zero fields take the defaults below, a Validate method holding
// every range, enum and exclusivity rule, and a Run method returning a
// typed outcome plus the kind's run report. The front ends only name
// the report's tool and input, so for the same spec both report the
// same command, config and results.
package pipeline

import (
	"cmp"
	"fmt"

	"dft/internal/advise"
	"dft/internal/core"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// The value each spec field takes when left zero. The dftc flags take
// their defaults from this table, so a CLI run and a dftd job that
// leaves the field out do the same work.
const (
	DefaultSeed             = 1
	DefaultFaultSimPatterns = 1024
	DefaultDiagnosePatterns = 256
	DefaultDiagnoseCompact  = "reverse"
	DefaultTop              = 10
	DefaultEngine           = "podem"
	DefaultBackend          = "auto"
	DefaultCompact          = "off"
	DefaultAdviseTarget     = advise.DefaultTarget
	DefaultAdviseBudget     = advise.DefaultBudget
	DefaultAdviseMaxSteps   = advise.DefaultMaxSteps
	DefaultAdvisePatterns   = advise.DefaultPatterns
	DefaultStyle            = "lssd"
	DefaultFuzzRounds       = 50
	DefaultFuzzPatterns     = 64
)

// The largest value each count may take. A run sizes buffers from its
// counts before any work starts — one row per random pattern, one
// simulator slot per worker — so a count past its bound is refused at
// validation, where dftd answers 400, rather than left to exhaust the
// server's memory. Each bound admits the defaults above with room to
// spare; the largest budgets in use are 131,072 patterns and
// 1,000,000 fuzz rounds.
const (
	MaxPatterns    = 1 << 18 // also bounds ATPG's random-first budget
	MaxRounds      = 1 << 20
	MaxWorkers     = 1 << 10
	MaxTop         = 1 << 12
	MaxAdviseSteps = 1 << 12
)

// count is a spec's count or size, named as dftd's options spell it,
// with its bound from the table above.
type count struct {
	name   string
	v, max int
}

// inRange rejects the first count below zero or above its bound.
func inRange(counts ...count) error {
	for _, c := range counts {
		if c.v < 0 {
			return fmt.Errorf("%s %d is negative", c.name, c.v)
		}
		if c.v > c.max {
			return fmt.Errorf("%s %d exceeds the bound %d", c.name, c.v, c.max)
		}
	}
	return nil
}

// design wraps the shared circuit in the view the spec asks for;
// core.FromCircuit and ApplyScan build fresh per-run state around it,
// so c itself is never modified.
func design(c *logic.Circuit, scan bool) (*core.Design, error) {
	d := core.FromCircuit(c)
	if scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// newReport starts a kind's report with its config; the front end
// names the tool and the input.
func newReport(kind string, config map[string]any) *telemetry.Report {
	rep := telemetry.NewReport("", kind, "")
	rep.Config = config
	return rep
}

// Seeded adds the seed that ran to a config. Seed 0 runs as
// DefaultSeed, and the config flags the substitution, so a client that
// sent 0 and reads back 1 knows which pattern set it got.
func Seeded(seed int64, config map[string]any) map[string]any {
	config["seed"] = cmp.Or(seed, DefaultSeed)
	if seed == 0 {
		config["seed_defaulted"] = true
	}
	return config
}
