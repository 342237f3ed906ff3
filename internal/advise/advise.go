// Package advise closes the design-for-testability loop: instead of
// only measuring how hard a network is to test, it recommends and
// applies the paper's structured remedies — test points (Section:
// "test points used as primary inputs/outputs"), partial scan, and
// scan-chain insertion — until a fault-coverage target is met or an
// overhead budget is spent.
//
// Each iteration (1) probes the working netlist with a bounded
// random-pattern + PODEM grading to find the faults that remain
// undetected, (2) generates candidate interventions at the hard sites
// and unscanned storage elements, (3) scores each candidate by its
// predicted coverage gain per gate-equivalent of overhead under
// view-aware COP probabilities, and (4) applies the best one to a
// working copy of the netlist and re-grades. Coverage is monotone
// non-decreasing by construction: detections accumulate over the
// original collapsed fault list, interventions only ever add
// controllability and observability, and net IDs stay stable because
// every transformation appends elements.
package advise

import (
	"context"
	"math"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/telemetry"
)

// Default knobs: the production configuration for a zero Options.
const (
	DefaultTarget     = 0.99
	DefaultBudget     = 0.5
	DefaultMaxSteps   = 32
	DefaultPatterns   = 256
	DefaultBacktracks = 128
	DefaultProbes     = 48
	DefaultCandidates = 12
)

// Stop reasons recorded in Plan.StopReason.
const (
	StopTarget    = "target"    // coverage target reached
	StopBudget    = "budget"    // no useful candidate fits the remaining budget
	StopMaxSteps  = "max-steps" // step limit hit first
	StopExhausted = "exhausted" // no candidate predicts any gain
	StopCancelled = "cancelled" // context cancelled mid-run
)

// Options configures an advisor run. The zero value asks for 99%
// coverage within a 50% gate-overhead budget in at most 32 steps.
type Options struct {
	// Target is the fault-coverage goal in [0,1]; 0 means DefaultTarget.
	Target float64
	// Budget caps the added gate equivalents as a fraction of the
	// original network size (gates + 2 per storage element, the
	// lssd.Overhead convention); 0 means DefaultBudget.
	Budget float64
	// MaxSteps bounds the number of applied interventions; 0 means
	// DefaultMaxSteps.
	MaxSteps int
	// Patterns is the random-pattern budget of each probe; 0 means
	// DefaultPatterns.
	Patterns int
	// Backtracks bounds each PODEM probe; 0 means DefaultBacktracks.
	Backtracks int
	// Probes bounds the deterministic (PODEM) targets per probe; 0
	// means DefaultProbes.
	Probes int
	// Candidates bounds the interventions scored per iteration; 0
	// means DefaultCandidates.
	Candidates int
	// Seed is the master seed; per-iteration probe seeds derive from it
	// deterministically. 0 means 1.
	Seed uint64
	// Workers is the fault-engine sharding degree (fault.WorkersAuto).
	Workers int
	// Style selects the scan discipline for chain materialization and
	// overhead accounting (StyleLSSD or StyleMuxScan).
	Style lssd.Style
	// Metrics receives advise.* telemetry; nil means telemetry.Default().
	Metrics *telemetry.Registry
	// Checkpoint, when non-nil, is called after the baseline probe and
	// after every applied step with the plan so far — the long-running
	// service job's per-iteration checkpoint. The plan (including its
	// Bench dump) is fully populated at each call but only valid for
	// the duration of the call; retain a marshalled copy, not the
	// pointer.
	Checkpoint func(*Plan)
}

func (opt Options) withDefaults() Options {
	if opt.Target <= 0 {
		opt.Target = DefaultTarget
	}
	if opt.Budget <= 0 {
		opt.Budget = DefaultBudget
	}
	if opt.MaxSteps <= 0 {
		opt.MaxSteps = DefaultMaxSteps
	}
	if opt.Patterns <= 0 {
		opt.Patterns = DefaultPatterns
	}
	if opt.Backtracks <= 0 {
		opt.Backtracks = DefaultBacktracks
	}
	if opt.Probes <= 0 {
		opt.Probes = DefaultProbes
	}
	if opt.Candidates <= 0 {
		opt.Candidates = DefaultCandidates
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return opt
}

// Step is one applied intervention with its measured effect.
type Step struct {
	// Kind is "observe", "control", "scan-ff" or "chain".
	Kind string `json:"kind"`
	// Net names the targeted net (the observed/gated net, or the
	// scanned storage element; a chain step names its first element).
	Net string `json:"net,omitempty"`
	// FFs lists every storage element a chain step scanned.
	FFs []string `json:"ffs,omitempty"`
	// Coverage is the graded fault coverage after this step; Delta is
	// the increase over the previous step (never negative).
	Coverage float64 `json:"coverage"`
	Delta    float64 `json:"delta"`
	// PredictedGain is the COP-estimated expected new detections that
	// ranked the candidate.
	PredictedGain float64 `json:"predicted_gain"`
	// OverheadGates/Overhead/Pins are cumulative through this step.
	OverheadGates int     `json:"overhead_gates"`
	Overhead      float64 `json:"overhead"`
	Pins          int     `json:"pins"`
	// Seed is the derived seed of the probe that graded this step.
	Seed uint64 `json:"seed"`
}

// Plan is the advisor's machine-readable output: the ordered
// interventions, their coverage/overhead trajectory, and the final
// instrumented netlist.
type Plan struct {
	Circuit  string  `json:"circuit"`
	Faults   int     `json:"faults"` // collapsed fault classes graded
	Seed     uint64  `json:"seed"`
	Target   float64 `json:"target"`
	Budget   float64 `json:"budget"`
	Baseline float64 `json:"baseline"` // coverage before any intervention
	Coverage float64 `json:"coverage"` // coverage after the last step
	Steps    []Step  `json:"steps"`
	// Scanned names the storage elements converted to scan, in chain
	// order.
	Scanned []string `json:"scanned,omitempty"`
	// OverheadGates/Overhead/Pins are the final cumulative totals.
	OverheadGates int     `json:"overhead_gates"`
	Overhead      float64 `json:"overhead"`
	Pins          int     `json:"pins"`
	StopReason    string  `json:"stop_reason"`
	// Bench is the working netlist with every test point applied, in
	// .bench form; scanned elements are listed in Scanned and graded
	// through a partial-scan view rather than materialized gates.
	Bench string `json:"bench"`
	// ChainBench, when any element was scanned, is the fully
	// materialized scan netlist (lssd.InsertPartial over Scanned).
	ChainBench string `json:"chain_bench,omitempty"`
}

// Run drives the advisor loop over a finalized circuit. The circuit is
// never modified; the returned plan carries the instrumented copy. On
// context cancellation Run returns the partial plan alongside the
// context's error, so callers can checkpoint what was decided so far.
func Run(ctx context.Context, c *logic.Circuit, opt Options) (*Plan, error) {
	opt = opt.withDefaults()
	reg := telemetry.OrDefault(opt.Metrics)
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "advise.run")
	defer span.End()

	st := newState(c, opt)
	plan := &Plan{
		Circuit: c.Name,
		Faults:  len(st.faults),
		Seed:    opt.Seed,
		Target:  opt.Target,
		Budget:  opt.Budget,
	}
	stepsProg := reg.Progress("advise.steps.progress")
	stepsProg.SetTotal(int64(opt.MaxSteps))
	covProg := reg.Progress("advise.coverage.progress")
	covProg.SetTotal(10000)
	covGauge := reg.Gauge("advise.coverage")
	lastBP := int64(0)
	setCov := func(cov float64) {
		bp := int64(math.Round(cov * 10000))
		covGauge.Set(bp)
		if bp > lastBP {
			covProg.Add(bp - lastBP)
			lastBP = bp
		}
	}

	if err := st.probe(ctx, deriveSeed(opt.Seed, 0), opt, reg); err != nil {
		return st.finish(plan, StopCancelled, opt), err
	}
	plan.Baseline = st.coverage()
	setCov(plan.Baseline)
	if opt.Checkpoint != nil {
		opt.Checkpoint(st.finish(plan, "", opt))
	}

	budgetGE := int(opt.Budget * float64(st.origSize))
	for iter := 0; ; iter++ {
		if st.coverage() >= opt.Target {
			return st.finish(plan, StopTarget, opt), nil
		}
		if iter >= opt.MaxSteps {
			return st.finish(plan, StopMaxSteps, opt), nil
		}
		if err := ctx.Err(); err != nil {
			return st.finish(plan, StopCancelled, opt), err
		}
		_, isp := telemetry.StartSpanCtx(ctx, reg, "advise.iteration")
		cands := st.candidates(opt)
		base := st.baselineDetect(opt)
		for i := range cands {
			st.score(&cands[i], base, opt)
		}
		reg.Counter("advise.candidates.scored").Add(int64(len(cands)))
		best := pick(cands, budgetGE-st.overheadGE)
		if best == nil {
			isp.End()
			reason := StopExhausted
			for _, cd := range cands {
				if cd.gain > gainEps {
					reason = StopBudget // a useful candidate existed but none fit
					break
				}
			}
			return st.finish(plan, reason, opt), nil
		}
		isp.SetAttr("kind", best.kind)
		prev := st.coverage()
		step := Step{
			Kind:          best.kind,
			Net:           st.work.NameOf(best.net),
			PredictedGain: best.gain,
			Seed:          deriveSeed(opt.Seed, iter+1),
		}
		for _, ff := range best.ffs {
			step.FFs = append(step.FFs, st.work.NameOf(ff))
		}
		st.apply(*best)
		err := st.probe(ctx, step.Seed, opt, reg)
		reg.Counter("advise.interventions.applied").Inc()
		step.Coverage = st.coverage()
		step.Delta = step.Coverage - prev
		step.OverheadGates = st.overheadGE
		step.Overhead = float64(st.overheadGE) / float64(st.origSize)
		step.Pins = st.pins
		plan.Steps = append(plan.Steps, step)
		stepsProg.Inc()
		setCov(step.Coverage)
		isp.End()
		if err != nil {
			return st.finish(plan, StopCancelled, opt), err
		}
		if opt.Checkpoint != nil {
			opt.Checkpoint(st.finish(plan, "", opt))
		}
	}
}

// finish stamps the mutable tail of the plan — coverage, overhead,
// netlist dumps — from the current state. It is called both at every
// checkpoint and on exit, so a cancelled run's last checkpoint and a
// completed run's plan have identical shape.
func (st *state) finish(plan *Plan, stop string, opt Options) *Plan {
	plan.StopReason = stop
	plan.Coverage = st.coverage()
	plan.OverheadGates = st.overheadGE
	plan.Overhead = float64(st.overheadGE) / float64(st.origSize)
	plan.Pins = st.pins
	plan.Bench = logic.BenchString(st.work)
	plan.Scanned = plan.Scanned[:0]
	for _, ff := range st.scanned {
		plan.Scanned = append(plan.Scanned, st.work.NameOf(ff))
	}
	if len(st.scanned) > 0 {
		chained, _ := lssd.InsertPartial(st.work, st.scanned, opt.Style)
		plan.ChainBench = logic.BenchString(chained)
	}
	return plan
}

// deriveSeed maps (master seed, iteration) to an independent probe
// seed through a splitmix64 step — no shared generator state crosses
// iterations, so any iteration's probe can be replayed in isolation.
func deriveSeed(master uint64, iter int) uint64 {
	z := master + (uint64(iter)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// state is the advisor's working memory across iterations.
type state struct {
	orig     *logic.Circuit
	work     *logic.Circuit // orig plus applied test points
	faults   []fault.Fault  // collapsed reps of the original circuit
	detected []bool         // cumulative, never cleared
	caught   int
	scanned  []int // storage elements converted to scan, chain order
	cursor   int   // rotating PODEM start offset across probes

	// points records applied test points per net: bit 0 = observed,
	// bit 1 = controlled. Re-observing a net is pure waste; candidates
	// skip what is already placed.
	points map[int]uint8

	origSize   int // gates + 2*DFFs of the original
	overheadGE int // gate equivalents added so far
	pins       int // package pins added so far
}

func newState(c *logic.Circuit, opt Options) *state {
	reps := fault.Collapse(c).Reps
	return &state{
		orig:     c,
		work:     c.Clone().MustFinalize(),
		faults:   reps,
		detected: make([]bool, len(reps)),
		points:   make(map[int]uint8),
		origSize: c.NumGates() + 2*c.NumDFFs(),
	}
}

func (st *state) coverage() float64 {
	if len(st.faults) == 0 {
		return 1
	}
	return float64(st.caught) / float64(len(st.faults))
}

func (st *state) recount() {
	n := 0
	for _, d := range st.detected {
		if d {
			n++
		}
	}
	st.caught = n
}
