package atpg

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Engine selects the deterministic test-generation algorithm.
type Engine int

const (
	EnginePodem Engine = iota
	EngineDAlg
)

// GenerateResult reports a full ATPG run.
type GenerateResult struct {
	Tests      []Test
	Patterns   [][]bool // fully-specified test vectors, X filled
	Detected   []bool   // per fault in the collapsed target list
	Untestable []fault.Fault
	Aborted    []fault.Fault
	Coverage   float64 // detected / (targets - untestable): testable coverage
	RawCover   float64 // detected / targets
	Elapsed    time.Duration
}

// Config controls the ATPG driver.
type Config struct {
	Engine        Engine
	MaxBacktracks int
	RandomSeed    int64
	// RandomFirst applies this many random patterns (with fault
	// dropping) before any deterministic generation; 0 disables.
	RandomFirst int
	// Workers is the fault-simulation sharding degree, with the same
	// meaning as fault.Options.Workers: 0 selects GOMAXPROCS. Detection
	// outcomes are identical for every worker count.
	Workers int
	// Metrics receives the run's telemetry; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
}

// Generate runs the classical ATPG flow over the collapsed fault list:
// optional random-pattern phase, then one deterministic test per
// remaining fault, fault-simulating every new test against the
// remaining faults so each test is credited with everything it catches.
func Generate(c *logic.Circuit, view View, targets []fault.Fault, cfg Config) *GenerateResult {
	res, _ := GenerateContext(context.Background(), c, view, targets, cfg)
	return res
}

// GenerateContext is Generate under a context: the deadline/cancel
// path shared by the dftc -timeout flag and the dftd job runner. The
// context is polled between random-pattern blocks and between
// deterministic targets — the units of work a caller can reason about
// — so an expired deadline stops the run within one fault's worth of
// search. On cancellation it returns (nil, ctx.Err()); a completed
// run returns (result, nil).
func GenerateContext(ctx context.Context, c *logic.Circuit, view View, targets []fault.Fault, cfg Config) (*GenerateResult, error) {
	start := time.Now()
	reg := telemetry.OrDefault(cfg.Metrics)
	// Span instead of a bare timer: End still observes the
	// atpg.generate timer, and the span parents the per-phase children
	// below in the job trace.
	ctx, genSpan := telemetry.StartSpanCtx(ctx, reg, "atpg.generate")
	genSpan.SetAttr("targets", strconv.Itoa(len(targets)))
	defer genSpan.End()
	reg.Counter("atpg.faults.targeted").Add(int64(len(targets)))
	// Progress counts targets resolved by the deterministic loop
	// (generated, skipped as already-detected, untestable or aborted),
	// so done reaches total exactly when the run completes.
	prog := reg.Progress("atpg.faults.progress")
	prog.AddTotal(int64(len(targets)))
	rng := rand.New(rand.NewSource(cfg.RandomSeed + 1))
	res := &GenerateResult{Detected: make([]bool, len(targets))}
	h := newHarness(c, view, targets, res.Detected, cfg.Workers, reg)

	if cfg.RandomFirst > 0 {
		rctx, randSpan := telemetry.StartSpanCtx(ctx, reg, "atpg.random")
		applied := 0
		for applied < cfg.RandomFirst && h.remaining() > 0 {
			if err := rctx.Err(); err != nil {
				reg.Counter("atpg.cancelled").Inc()
				randSpan.End()
				return nil, err
			}
			block := make([][]bool, 0, 64)
			for k := 0; k < 64 && applied+len(block) < cfg.RandomFirst; k++ {
				p := make([]bool, len(view.Inputs))
				for i := range p {
					p[i] = rng.Intn(2) == 1
				}
				block = append(block, p)
			}
			for _, p := range h.applyBlock(block, res.Detected) {
				res.Patterns = append(res.Patterns, p)
				tv := make([]logic.V, len(p))
				for i, b := range p {
					tv[i] = logic.FromBool(b)
				}
				res.Tests = append(res.Tests, Test{Values: tv})
			}
			applied += len(block)
		}
		reg.Counter("atpg.random.patterns").Add(int64(applied))
		randSpan.SetAttr("patterns", strconv.Itoa(applied))
		randSpan.End()
	}

	pcfg := PodemConfig{MaxBacktracks: cfg.MaxBacktracks, Metrics: cfg.Metrics}
	engineTimer := reg.Timer("atpg.engine.podem")
	if cfg.Engine == EngineDAlg {
		engineTimer = reg.Timer("atpg.engine.dalg")
	}
	var searcher *Searcher
	gen := func(f fault.Fault) (Test, error) {
		defer engineTimer.Time()()
		if cfg.Engine == EngineDAlg {
			return DAlg(c, view, f, pcfg)
		}
		if searcher == nil {
			searcher = NewSearcher(c, view)
		}
		return searcher.Podem(f, pcfg)
	}

	dctx, detSpan := telemetry.StartSpanCtx(ctx, reg, "atpg.deterministic")
	defer detSpan.End()
	for fi, f := range targets {
		prog.Inc()
		if res.Detected[fi] {
			continue
		}
		if err := dctx.Err(); err != nil {
			reg.Counter("atpg.cancelled").Inc()
			return nil, err
		}
		t, err := gen(f)
		switch err {
		case nil:
		case ErrUntestable:
			res.Untestable = append(res.Untestable, f)
			continue
		default:
			res.Aborted = append(res.Aborted, f)
			continue
		}
		// Fill X positions randomly: free fault coverage.
		full := t.Fill(func() bool { return rng.Intn(2) == 1 })
		res.Tests = append(res.Tests, t)
		res.Patterns = append(res.Patterns, full)
		h.applyBlock([][]bool{full}, res.Detected)
		if !res.Detected[fi] {
			// The filled vector must detect its target; a miss means the
			// generator and simulator disagree — fail loudly in tests.
			res.Aborted = append(res.Aborted, f)
		}
	}

	caught := 0
	for _, d := range res.Detected {
		if d {
			caught++
		}
	}
	res.RawCover = float64(caught) / float64(len(targets))
	testable := len(targets) - len(res.Untestable)
	if testable > 0 {
		res.Coverage = float64(caught) / float64(testable)
	}
	res.Elapsed = time.Since(start)
	reg.Counter("atpg.faults.detected").Add(int64(caught))
	reg.Counter("atpg.faults.untestable").Add(int64(len(res.Untestable)))
	reg.Counter("atpg.faults.aborted").Add(int64(len(res.Aborted)))
	reg.Histogram("atpg.patterns_per_run").Observe(int64(len(res.Patterns)))
	genSpan.SetAttr("detected", strconv.Itoa(caught))
	genSpan.SetAttr("aborted", strconv.Itoa(len(res.Aborted)))
	return res, nil
}
