package pipeline

import (
	"cmp"
	"context"
	"fmt"

	"dft/internal/advise"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/telemetry"
)

// Advise runs the closed-loop DFT advisor (`dftc advise`, kind
// advise): probe, score, apply the cheapest intervention, repeat until
// the coverage target is met or the overhead budget is spent.
type Advise struct {
	Target   float64 // coverage goal in [0,1]
	Budget   float64 // added gates as a fraction of circuit size
	MaxSteps int
	Patterns int // random patterns per probe
	Seed     int64
	Workers  int
	Style    string // lssd|mux
	// Checkpoint, when non-nil, sees the plan so far after every step;
	// see advise.Options.Checkpoint.
	Checkpoint func(*advise.Plan)
}

func (s Advise) parse() (lssd.Style, error) {
	if err := negative(count{"max_steps", s.MaxSteps}, count{"patterns", s.Patterns}, count{"workers", s.Workers}); err != nil {
		return 0, err
	}
	if s.Target < 0 || s.Target > 1 {
		return 0, fmt.Errorf("target %v out of range [0,1]", s.Target)
	}
	if s.Budget < 0 {
		return 0, fmt.Errorf("budget %v is negative", s.Budget)
	}
	switch s.Style {
	case "", "lssd":
		return lssd.StyleLSSD, nil
	case "mux":
		return lssd.StyleMuxScan, nil
	}
	return 0, fmt.Errorf("unknown style %q (want lssd or mux)", s.Style)
}

// Validate checks the spec without running it.
func (s Advise) Validate() error {
	_, err := s.parse()
	return err
}

// Run advises c, which it never modifies; the plan carries the
// instrumented copy.
func (s Advise) Run(ctx context.Context, c *logic.Circuit, reg *telemetry.Registry) (*advise.Plan, *telemetry.Report, error) {
	style, err := s.parse()
	if err != nil {
		return nil, nil, err
	}
	opt := advise.Options{
		Target:     cmp.Or(s.Target, DefaultAdviseTarget),
		Budget:     cmp.Or(s.Budget, DefaultAdviseBudget),
		MaxSteps:   cmp.Or(s.MaxSteps, DefaultAdviseMaxSteps),
		Patterns:   cmp.Or(s.Patterns, DefaultAdvisePatterns),
		Seed:       uint64(cmp.Or(s.Seed, DefaultSeed)),
		Workers:    s.Workers,
		Style:      style,
		Metrics:    reg,
		Checkpoint: s.Checkpoint,
	}
	plan, err := advise.Run(ctx, c, opt)
	if err != nil {
		return nil, nil, err
	}
	rep := newReport("advise", seeded(s.Seed, map[string]any{
		"target": opt.Target, "budget": opt.Budget, "max_steps": opt.MaxSteps,
		"patterns": opt.Patterns, "workers": s.Workers, "style": cmp.Or(s.Style, DefaultStyle),
	}))
	rep.Results = map[string]any{
		"baseline":       plan.Baseline,
		"coverage":       plan.Coverage,
		"steps":          len(plan.Steps),
		"scanned":        len(plan.Scanned),
		"overhead":       plan.Overhead,
		"overhead_gates": plan.OverheadGates,
		"pins":           plan.Pins,
		"stop_reason":    plan.StopReason,
		"plan":           plan,
	}
	return plan, rep, nil
}
