package advise

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// evalNets computes every net value for one combinational evaluation
// with the given primary-input assignment (by name) and every storage
// element held at the given state value (by name; absent names read 0).
func evalNets(c *logic.Circuit, in, state map[string]bool) []bool {
	vals := make([]bool, c.NumNets())
	for _, id := range c.Order {
		g := &c.Gates[id]
		switch g.Type {
		case logic.Input:
			vals[id] = in[g.Name]
		case logic.DFF:
			vals[id] = state[g.Name]
		case logic.Const0:
			vals[id] = false
		case logic.Const1:
			vals[id] = true
		case logic.Buf:
			vals[id] = vals[g.Fanin[0]]
		case logic.Not:
			vals[id] = !vals[g.Fanin[0]]
		case logic.And, logic.Nand:
			v := true
			for _, s := range g.Fanin {
				v = v && vals[s]
			}
			vals[id] = v != (g.Type == logic.Nand)
		case logic.Or, logic.Nor:
			v := false
			for _, s := range g.Fanin {
				v = v || vals[s]
			}
			vals[id] = v != (g.Type == logic.Nor)
		case logic.Xor, logic.Xnor:
			v := false
			for _, s := range g.Fanin {
				v = v != vals[s]
			}
			vals[id] = v != (g.Type == logic.Xnor)
		}
	}
	return vals
}

func runHardcore(t *testing.T, opt Options) *Plan {
	t.Helper()
	c := circuits.Hardcore(8)
	plan, err := Run(context.Background(), c, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return plan
}

func TestAdviseHardcoreReachesTarget(t *testing.T) {
	plan := runHardcore(t, Options{Target: 0.99, Seed: 7, Metrics: telemetry.NewRegistry()})
	if plan.Baseline >= 0.90 {
		t.Fatalf("hardcore baseline %.4f is not a hard circuit (< 0.90 wanted)", plan.Baseline)
	}
	if plan.Coverage < 0.99 {
		t.Fatalf("advisor stopped at %.4f (%s), wanted >= 0.99", plan.Coverage, plan.StopReason)
	}
	if plan.StopReason != StopTarget {
		t.Fatalf("stop reason %q, want %q", plan.StopReason, StopTarget)
	}
	if plan.Overhead > plan.Budget {
		t.Fatalf("overhead %.3f exceeds budget %.3f", plan.Overhead, plan.Budget)
	}
	if len(plan.Steps) == 0 || plan.Bench == "" {
		t.Fatal("plan has no steps or no netlist dump")
	}
	if len(plan.Scanned) > 0 && plan.ChainBench == "" {
		t.Fatal("scanned elements but no materialized chain netlist")
	}
}

func TestAdviseCoverageMonotone(t *testing.T) {
	plan := runHardcore(t, Options{Target: 1.0, MaxSteps: 6, Patterns: 64, Seed: 3,
		Metrics: telemetry.NewRegistry()})
	prev := plan.Baseline
	for i, s := range plan.Steps {
		if s.Coverage < prev {
			t.Fatalf("step %d coverage %.4f below previous %.4f", i, s.Coverage, prev)
		}
		if s.Delta < 0 {
			t.Fatalf("step %d negative delta %.4f", i, s.Delta)
		}
		prev = s.Coverage
	}
	if plan.Coverage != prev && len(plan.Steps) > 0 {
		t.Fatalf("plan coverage %.4f does not match last step %.4f", plan.Coverage, prev)
	}
}

func TestAdviseReplayDeterminism(t *testing.T) {
	a := runHardcore(t, Options{Seed: 42, Metrics: telemetry.NewRegistry()})
	b := runHardcore(t, Options{Seed: 42, Metrics: telemetry.NewRegistry()})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	seeds := map[uint64]bool{a.Seed: true}
	for _, s := range a.Steps {
		if seeds[s.Seed] {
			t.Fatalf("per-iteration seed %d repeats", s.Seed)
		}
		seeds[s.Seed] = true
	}
}

// TestAdviseFunctionPreservation checks the advisor's core safety
// property: with every added control input at 0, the instrumented
// netlist computes the same primary outputs and the same next-state
// function as the original on every net, for a sweep of random input
// and state assignments.
func TestAdviseFunctionPreservation(t *testing.T) {
	c := circuits.Hardcore(8)
	plan, err := Run(context.Background(), c, Options{Target: 1.0, MaxSteps: 8, Seed: 11,
		Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mod, err := logic.ParseBenchString("mod", plan.Bench)
	if err != nil {
		t.Fatalf("plan netlist does not parse: %v", err)
	}
	rng := uint64(991)
	next := func() bool {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng&1 == 1
	}
	for trial := 0; trial < 64; trial++ {
		in := map[string]bool{}
		for _, pi := range c.PIs {
			in[c.NameOf(pi)] = next()
		}
		// Added test-point inputs stay at their inactive 0 default.
		state := map[string]bool{}
		for _, ff := range c.DFFs {
			state[c.NameOf(ff)] = next()
		}
		vo := evalNets(c, in, state)
		vm := evalNets(mod, in, state)
		for i, po := range c.POs {
			if vo[po] != vm[mod.POs[i]] {
				t.Fatalf("trial %d: PO %s differs (orig %v, instrumented %v)",
					trial, c.NameOf(po), vo[po], vm[mod.POs[i]])
			}
		}
		for _, ff := range c.DFFs {
			mff, ok := mod.NetByName(c.NameOf(ff))
			if !ok {
				t.Fatalf("storage element %s missing from instrumented netlist", c.NameOf(ff))
			}
			if vo[c.Gates[ff].Fanin[0]] != vm[mod.Gates[mff].Fanin[0]] {
				t.Fatalf("trial %d: next-state of %s differs", trial, c.NameOf(ff))
			}
		}
	}
}

func TestAdviseCancellationReturnsPartialPlan(t *testing.T) {
	c := circuits.Hardcore(8)
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	var last *Plan
	opt := Options{
		Target: 1.0, Seed: 5, Metrics: telemetry.NewRegistry(),
		Checkpoint: func(p *Plan) {
			steps++
			cp := *p
			last = &cp
			if steps == 2 {
				cancel()
			}
		},
	}
	plan, err := Run(ctx, c, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if plan == nil || plan.StopReason != StopCancelled {
		t.Fatalf("cancelled run returned plan %+v", plan)
	}
	if last == nil || last.Bench == "" {
		t.Fatal("checkpoints did not carry a netlist dump")
	}
	if plan.Coverage < last.Coverage {
		t.Fatalf("final partial coverage %.4f below last checkpoint %.4f", plan.Coverage, last.Coverage)
	}
}

func TestAdviseCombinationalCircuit(t *testing.T) {
	c, err := circuits.Builtin("alu74181", 0)
	if err != nil {
		t.Fatal(err)
	}
	plan, perr := Run(context.Background(), c, Options{Target: 0.99, Seed: 9,
		Metrics: telemetry.NewRegistry()})
	if perr != nil {
		t.Fatalf("Run: %v", perr)
	}
	if plan.Coverage < plan.Baseline {
		t.Fatalf("coverage regressed: %.4f < %.4f", plan.Coverage, plan.Baseline)
	}
	if len(plan.Scanned) != 0 {
		t.Fatalf("combinational circuit got scan steps: %v", plan.Scanned)
	}
	for _, s := range plan.Steps {
		if s.Kind == "scan-ff" || s.Kind == "chain" {
			t.Fatalf("combinational circuit got %s step", s.Kind)
		}
	}
}

func TestAdviseBudgetStops(t *testing.T) {
	c := circuits.Hardcore(8)
	plan, err := Run(context.Background(), c, Options{Target: 1.0, Budget: 0.02, Seed: 7,
		Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if plan.Overhead > 0.02 {
		t.Fatalf("overhead %.3f exceeds 0.02 budget", plan.Overhead)
	}
	if plan.StopReason == StopTarget && plan.Coverage < 1.0 {
		t.Fatalf("stop reason %q inconsistent with coverage %.4f", plan.StopReason, plan.Coverage)
	}
}

func TestAdviseTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	plan := runHardcore(t, Options{Target: 0.99, Seed: 7, Metrics: reg})
	if got := reg.Counter("advise.interventions.applied").Value(); got != int64(len(plan.Steps)) {
		t.Fatalf("advise.interventions.applied = %d, want %d", got, len(plan.Steps))
	}
	if reg.Counter("advise.candidates.scored").Value() == 0 {
		t.Fatal("no candidates scored")
	}
	wantBP := int64(plan.Coverage*10000 + 0.5)
	if got := reg.Gauge("advise.coverage").Value(); got != wantBP {
		t.Fatalf("advise.coverage gauge = %d, want %d", got, wantBP)
	}
	ps := reg.ProgressStats()
	if _, ok := ps["advise.steps.progress"]; !ok {
		t.Fatal("no advise.steps.progress tracker")
	}
	if _, ok := ps["advise.coverage.progress"]; !ok {
		t.Fatal("no advise.coverage.progress tracker")
	}
}

// One Run observes its advise.run timer exactly once: the run's span
// records the timer, so no second stopwatch may share the name.
func TestAdviseRunTimerCountsOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	runHardcore(t, Options{Target: 0.99, Seed: 7, Metrics: reg})
	if n := reg.Timer("advise.run").Stats().Count; n != 1 {
		t.Fatalf("advise.run observed %d times in one run, want 1", n)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if deriveSeed(1, 0) == deriveSeed(1, 1) {
		t.Fatal("consecutive derived seeds collide")
	}
	if deriveSeed(1, 3) != deriveSeed(1, 3) {
		t.Fatal("derived seed is not a pure function")
	}
	if deriveSeed(1, 2) == deriveSeed(2, 2) {
		t.Fatal("master seed does not separate streams")
	}
}

func TestPlanBenchRoundTrips(t *testing.T) {
	plan := runHardcore(t, Options{Target: 0.99, Seed: 13, Metrics: telemetry.NewRegistry()})
	mod, err := logic.ParseBenchString("roundtrip", plan.Bench)
	if err != nil {
		t.Fatalf("plan netlist does not parse: %v", err)
	}
	back, err := logic.ParseBenchString("again", logic.BenchString(mod))
	if err != nil {
		t.Fatalf("re-emitted netlist does not parse: %v", err)
	}
	if logic.CanonicalBench(back) != logic.CanonicalBench(mod) {
		t.Fatal("plan netlist does not round-trip through .bench")
	}
	if plan.ChainBench != "" {
		cc, err := logic.ParseBenchString("chain", plan.ChainBench)
		if err != nil {
			t.Fatalf("chain netlist does not parse: %v", err)
		}
		if !strings.Contains(plan.ChainBench, "SE") || cc.NumDFFs() < len(plan.Scanned) {
			t.Fatal("chain netlist is missing the scan structure")
		}
	}
}
