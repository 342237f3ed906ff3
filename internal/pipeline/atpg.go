package pipeline

import (
	"cmp"
	"context"
	"fmt"

	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// ATPG generates a deterministic test set, optionally random-first
// and compacted (`dftc atpg`, kind atpg).
type ATPG struct {
	Engine      string // podem|dalg
	Random      int    // random-first pattern budget
	CompactMode string // off|reverse|full
	Seed        int64
	Scan        bool
	Workers     int
}

// ATPGResult is a generated test set and the design it targets.
type ATPGResult struct {
	Design *core.Design
	Tests  core.TestSet
}

func (s ATPG) parse() (atpg.Engine, compact.Mode, error) {
	if err := negative(count{"random", s.Random}, count{"workers", s.Workers}); err != nil {
		return 0, 0, err
	}
	engine := atpg.EnginePodem
	switch s.Engine {
	case "", "podem":
	case "dalg":
		engine = atpg.EngineDAlg
	default:
		return 0, 0, fmt.Errorf("unknown engine %q (want podem or dalg)", s.Engine)
	}
	mode, err := compact.ParseMode(s.CompactMode)
	return engine, mode, err
}

// Validate checks the spec without running it.
func (s ATPG) Validate() error {
	_, _, err := s.parse()
	return err
}

// Run generates the spec's test set for c.
func (s ATPG) Run(ctx context.Context, c *logic.Circuit, reg *telemetry.Registry) (*ATPGResult, *telemetry.Report, error) {
	engine, mode, err := s.parse()
	if err != nil {
		return nil, nil, err
	}
	d, err := design(c, s.Scan)
	if err != nil {
		return nil, nil, err
	}
	ts, err := d.GenerateContext(ctx, core.GenerateOptions{
		Engine:      engine,
		RandomFirst: s.Random,
		Seed:        cmp.Or(s.Seed, DefaultSeed),
		CompactMode: mode,
		Workers:     s.Workers,
		Metrics:     reg,
	})
	if err != nil {
		return nil, nil, err
	}

	rep := newReport("atpg", Seeded(s.Seed, map[string]any{
		"engine": cmp.Or(s.Engine, DefaultEngine), "scan": s.Scan, "random": s.Random,
		"compact_mode": mode.String(), "workers": s.Workers,
	}))
	rep.Results = map[string]any{
		"patterns":     len(ts.Patterns),
		"coverage":     ts.Coverage,
		"raw_coverage": ts.RawCover,
		"untestable":   ts.Untestable,
		"aborted":      ts.Aborted,
		"targets":      ts.TargetN,
		"gates":        d.Circuit.NumGates(),
		"dffs":         d.Circuit.NumDFFs(),
	}
	if st := ts.Compaction; st != nil {
		rep.Results["patterns_in"] = st.PatternsIn
		rep.Results["patterns_out"] = st.PatternsOut
		rep.Results["compact_ratio"] = st.Ratio
		rep.Results["replay_passes"] = st.ReplayPasses
	}
	return &ATPGResult{Design: d, Tests: ts}, rep, nil
}
