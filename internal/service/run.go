package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// execute runs one job under ctx and returns its run report. The
// job's private telemetry registry (created at admission, sampled
// live by the monitor) receives all the work's instruments, so the
// report's metrics section describes exactly this job's work; the
// server's own registry only carries the service.* instruments. The
// root "job" span parents every phase span the kernels open through
// the context, and the report is finished only after it ends, so the
// trace section always contains the complete tree.
func (s *Server) execute(ctx context.Context, j *Job) (*telemetry.Report, error) {
	p, reg := j.parsed, j.reg
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "job")
	span.SetAttr("kind", string(p.req.Kind))
	var rep *telemetry.Report
	var err error
	switch p.req.Kind {
	case KindFaultSim:
		rep, err = runFaultSim(ctx, p, reg)
	case KindATPG:
		rep, err = runATPG(ctx, p, reg)
	case KindDiagnose:
		rep, err = s.runDiagnose(ctx, p, reg)
	case KindAdvise:
		rep, err = runAdvise(ctx, j)
	default:
		rep, err = runFuzz(ctx, p, reg)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	return rep.Finish(reg), nil
}

// encodeReport renders a report as the bytes served to clients and
// stored in the result cache.
func encodeReport(rep *telemetry.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// design wraps the job's interned circuit in the requested view. The
// interned circuit itself is shared read-only across workers;
// core.FromCircuit and ApplyScan build fresh per-job state around it.
func design(p *parsedRequest) (*core.Design, error) {
	d := core.FromCircuit(p.circuit)
	if p.req.Options.Scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// seedOf resolves the request seed (CLI default: 1).
func seedOf(o Options) int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// recordSeed writes the effective seed into the report config. seed 0
// in a request silently aliases to the CLI default of 1; recording the
// resolved value (and flagging the aliasing) keeps the report honest —
// a client that sent seed 0 and reads back seed 1 knows exactly which
// pattern set was graded.
func recordSeed(rep *telemetry.Report, o Options, seed int64) {
	rep.Config["seed"] = seed
	if o.Seed == 0 {
		rep.Config["seed_defaulted"] = true
	}
}

// runFaultSim mirrors `dftc faultsim`: grade a seeded random pattern
// set against the collapsed fault list. Coverage is bit-identical to
// a direct fault.Simulate call with the same circuit, seed and
// options — the service adds queuing and caching, never arithmetic.
func runFaultSim(ctx context.Context, p *parsedRequest, reg *telemetry.Registry) (*telemetry.Report, error) {
	o := p.req.Options
	d, err := design(p)
	if err != nil {
		return nil, err
	}
	backend, err := fault.ParseBackend(o.Backend)
	if err != nil {
		return nil, err
	}
	n := o.Patterns
	if n == 0 {
		n = 1024
	}
	drop := fault.DropOn
	if o.Drop == "off" {
		drop = fault.DropOff
	}
	seed := seedOf(o)
	view := d.View()
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		pat := make([]bool, len(view.Inputs))
		for j := range pat {
			pat[j] = rng.Intn(2) == 1
		}
		pats[i] = pat
	}
	rep := telemetry.NewReport("dftd", string(KindFaultSim), p.input)
	rep.Config = map[string]any{
		"patterns": n, "scan": o.Scan,
		"engine": backend.String(), "workers": o.Workers,
		"drop": drop == fault.DropOn,
	}
	recordSeed(rep, o, seed)
	mode, _ := compact.ParseMode(o.CompactMode) // validated at admission
	if mode.Enabled() {
		// Compaction replays the same engine grade internally
		// (detection outcomes are drop-invariant), so running
		// fault.Simulate first would grade the whole set twice for the
		// same numbers. The compactor's before-side stats ARE the
		// plain grade.
		_, cst, err := compact.Patterns(ctx, d.Circuit, view, d.Faults(), pats, compact.Options{
			Mode: mode, Workers: o.Workers, Seed: seed, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		rep.Config["compact_mode"] = mode.String()
		rep.Results = map[string]any{
			"coverage":      cst.CoverageIn,
			"kept_patterns": cst.PatternsOut,
			"targets":       len(d.Faults()),
			"detected":      cst.DetectedIn,
			"patterns_in":   cst.PatternsIn,
			"patterns_out":  cst.PatternsOut,
			"compact_ratio": cst.Ratio,
			"replay_passes": cst.ReplayPasses,
		}
	} else {
		res, err := fault.Simulate(ctx, d.Circuit, d.Faults(), pats, fault.Options{
			Backend: backend,
			Workers: o.Workers,
			Drop:    drop,
			View:    fault.View{Inputs: view.Inputs, Outputs: view.Outputs},
			Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		kept := make(map[int]bool)
		for _, pi := range res.DetectedBy {
			if pi >= 0 {
				kept[pi] = true
			}
		}
		rep.Results = map[string]any{
			"coverage":      res.Coverage(),
			"kept_patterns": len(kept),
			"targets":       len(res.Faults),
			"detected":      res.NumCaught,
		}
	}
	prog := sim.CompiledFor(d.Circuit)
	rep.Results["folded_gates"] = prog.Folded()
	rep.Results["hashed_gates"] = prog.Hashed()
	return rep, nil
}

// runATPG mirrors `dftc atpg`: deterministic generation (optionally
// random-first and compacted) under the job deadline.
func runATPG(ctx context.Context, p *parsedRequest, reg *telemetry.Registry) (*telemetry.Report, error) {
	o := p.req.Options
	d, err := design(p)
	if err != nil {
		return nil, err
	}
	engine := atpg.EnginePodem
	if o.Engine == "dalg" {
		engine = atpg.EngineDAlg
	}
	seed := seedOf(o)
	mode, _ := compact.ParseMode(o.CompactMode) // validated at admission
	ts, err := d.GenerateContext(ctx, core.GenerateOptions{
		Engine:      engine,
		RandomFirst: o.Random,
		Seed:        seed,
		CompactMode: mode,
		Workers:     o.Workers,
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	rep := telemetry.NewReport("dftd", string(KindATPG), p.input)
	rep.Config = map[string]any{
		"engine": o.Engine, "scan": o.Scan, "random": o.Random,
		"workers": o.Workers,
	}
	recordSeed(rep, o, seed)
	if mode.Enabled() {
		rep.Config["compact_mode"] = mode.String()
	}
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
	if ts.Compaction != nil {
		rep.Results["patterns_in"] = ts.Compaction.PatternsIn
		rep.Results["patterns_out"] = ts.Compaction.PatternsOut
		rep.Results["compact_ratio"] = ts.Compaction.Ratio
		rep.Results["replay_passes"] = ts.Compaction.ReplayPasses
	}
	return rep, nil
}

// runAdvise mirrors `dftc advise`: the closed-loop DFT advisor — the
// service's first long-running job type. Every iteration the advisor's
// Checkpoint hook snapshots the partial plan onto the job, so a
// cancelled run still hands its client everything decided so far, and
// the advise.iteration spans plus the steps/coverage progress trackers
// stream over the job's SSE event log through the standard monitor.
func runAdvise(ctx context.Context, j *Job) (*telemetry.Report, error) {
	p, reg := j.parsed, j.reg
	o := p.req.Options
	seed := seedOf(o)
	opt := advise.Options{
		Target:   o.Target,
		Budget:   o.Budget,
		MaxSteps: o.MaxSteps,
		Patterns: o.Patterns,
		Seed:     uint64(seed),
		Workers:  o.Workers,
		Metrics:  reg,
		Checkpoint: func(pl *advise.Plan) {
			// The plan pointer is only valid for this call; retain bytes.
			if enc, err := json.Marshal(partialPlan{
				Schema:  "dft.advise-plan/v1",
				Partial: true,
				Input:   p.input,
				Plan:    pl,
			}); err == nil {
				j.checkpoint = enc
			}
		},
	}
	plan, err := advise.Run(ctx, p.circuit, opt)
	if err != nil {
		return nil, err
	}
	rep := telemetry.NewReport("dftd", string(KindAdvise), p.input)
	rep.Config = map[string]any{
		"target": plan.Target, "budget": plan.Budget,
		"max_steps": o.MaxSteps, "workers": o.Workers,
	}
	recordSeed(rep, o, seed)
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
	return rep, nil
}

// partialPlan is the report document attached to a cancelled advise
// job: the last checkpointed plan, flagged so clients can tell it from
// a completed run's report.
type partialPlan struct {
	Schema  string       `json:"schema"`
	Partial bool         `json:"partial"`
	Input   string       `json:"input"`
	Plan    *advise.Plan `json:"plan"`
}

// runFuzz mirrors `dftc fuzz`: sweep seeds 1..Rounds through the
// differential checker, honoring the job deadline between rounds.
func runFuzz(ctx context.Context, p *parsedRequest, reg *telemetry.Registry) (*telemetry.Report, error) {
	o := p.req.Options
	rounds := o.Rounds
	if rounds == 0 {
		rounds = 50
	}
	patterns := o.Patterns
	if patterns == 0 {
		patterns = 64
	}
	// Rounds progress: one tick per completed round, from a span that
	// marks the sweep as the job's active phase.
	rctx, span := telemetry.StartSpanCtx(ctx, reg, "fuzz.rounds")
	defer span.End()
	prog := reg.Progress("fuzz.rounds.progress")
	prog.SetTotal(int64(rounds))
	var div *fuzzdiff.Divergence
	ran := 0
	for seed := int64(1); seed <= int64(rounds); seed++ {
		if err := rctx.Err(); err != nil {
			return nil, err
		}
		ran++
		d := fuzzdiff.Round(fuzzdiff.ShapeConfig(seed), seed, fuzzdiff.RoundOptions{Patterns: patterns})
		prog.Inc()
		if d != nil {
			div = d
			break
		}
	}
	rep := telemetry.NewReport("dftd", string(KindFuzz), "")
	rep.Config = map[string]any{
		"rounds": rounds, "patterns": patterns, "configs": len(fuzzdiff.Matrix()),
	}
	nDiv := 0
	if div != nil {
		nDiv = 1
		rep.Results = map[string]any{"repro": div.Repro(), "seed": div.Seed}
	} else {
		rep.Results = map[string]any{}
	}
	rep.Results["rounds"] = ran
	rep.Results["divergences"] = nDiv
	return rep, nil
}
