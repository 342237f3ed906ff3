package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/cost"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

// Fig1Result is the stuck-at demonstration of Fig. 1.
type Fig1Result struct {
	Pattern            string
	GoodOut, FaultyOut bool
	IsTest             bool
	NonTestPattern     string
}

// Render prints the good-machine/faulty-machine comparison.
func (r Fig1Result) Render() string {
	t := &text{title: "Fig. 1 — test for input stuck-at fault (AND gate, A s-a-1)"}
	t.addf("pattern %s: good machine -> %v, faulty machine -> %v (test: %v)",
		r.Pattern, r.GoodOut, r.FaultyOut, r.IsTest)
	t.addf("pattern %s: responses agree, not a test", r.NonTestPattern)
	return t.Render()
}

// Fig1 reproduces the paper's opening example.
func Fig1() Result {
	c := logic.New("and2")
	a := c.AddInput("A")
	b := c.AddInput("B")
	y := c.AddGate(logic.And, "C", a, b)
	c.MarkOutput(y)
	c.MustFinalize()
	f := fault.Fault{Gate: y, Pin: 0, SA: logic.One}
	good := sim.Eval(c, []bool{false, true}, nil)
	bad := fault.EvalFaulty(c, []bool{false, true}, nil, f)
	return Fig1Result{
		Pattern:        "A=0 B=1",
		GoodOut:        good[y],
		FaultyOut:      bad[y],
		IsTest:         good[y] != bad[y],
		NonTestPattern: "A=1 B=1",
	}
}

// UniverseResult covers §I.A/§I.B fault accounting.
type UniverseResult struct {
	Nets             int
	MultipleFaults   float64
	TwoInputGates    int
	SingleFaults     int
	CollapsedFaults  int
	CollapseRatio    float64
	SimulationPasses int
}

// Render prints the accounting.
func (r UniverseResult) Render() string {
	t := &text{title: "§I — fault universe and collapsing"}
	t.addf("multiple-fault space for %d nets: 3^N = %.3g combinations", r.Nets, r.MultipleFaults)
	t.addf("single stuck-at universe for %d two-input gates: %d faults (paper: 6000)", r.TwoInputGates, r.SingleFaults)
	t.addf("after equivalence collapsing: %d faults (ratio %.2f; paper: \"about 3000\")",
		r.CollapsedFaults, r.CollapseRatio)
	t.addf("fault simulation work: %d machine simulations (paper: 3001)", r.SimulationPasses)
	return t.Render()
}

// FaultUniverse reproduces the 1000-gate accounting on a NAND/NOR-era
// network — the logic family the paper's "about 3000" arithmetic
// assumes (XOR pins have no equivalent faults and would collapse less).
func FaultUniverse() Result {
	rng := rand.New(rand.NewSource(5))
	c := circuits.RandomCircuitTypes(rng, 20, 1000, 10, 2,
		[]logic.GateType{logic.And, logic.Nand, logic.Or, logic.Nor})
	u := fault.Universe(c)
	// Count only gate-pin faults to mirror the paper's 6·G accounting.
	gatePin := 0
	for _, f := range u {
		if c.Gates[f.Gate].Type != logic.Input {
			gatePin++
		} else if f.Pin == fault.Stem {
			// input stem faults excluded from the 6·G figure
			continue
		}
	}
	cl := fault.Collapse(c)
	return UniverseResult{
		Nets:             100,
		MultipleFaults:   cost.FaultCombinations(100),
		TwoInputGates:    1000,
		SingleFaults:     cost.SingleFaultCount(1000),
		CollapsedFaults:  len(cl.Reps),
		CollapseRatio:    float64(len(cl.Reps)) / float64(len(u)),
		SimulationPasses: cost.SimulationWork(3000),
	}
}

// Eq1Point is one measured size/time sample.
type Eq1Point struct {
	Gates         int
	ClassicalSecs float64 // serial fault simulation, no dropping, test length ~ N
	ModernSecs    float64 // PPSFP + dropping + random-first ATPG
}

// Eq1Result fits T = K·Nˣ to measured runtimes of the classical 1982
// flow (the regime Eq. (1) describes) and of this toolkit's optimized
// flow.
type Eq1Result struct {
	Points            []Eq1Point
	ClassicalExponent float64
	ModernExponent    float64
}

// Render prints the sweep and fits.
func (r Eq1Result) Render() string {
	t := &text{title: "Eq. (1) — T = K·N^x scaling of test generation and fault simulation"}
	tb := &table{header: []string{"gates", "classical serial flow (s)", "modern PPSFP flow (s)"}}
	for _, p := range r.Points {
		tb.add(fmt.Sprint(p.Gates), fmt.Sprintf("%.4f", p.ClassicalSecs), fmt.Sprintf("%.4f", p.ModernSecs))
	}
	t.addTable(tb)
	t.addf("classical flow exponent: %.2f (paper: ~3; N faults x N patterns x N-gate passes)",
		r.ClassicalExponent)
	t.addf("modern flow exponent   : %.2f (fault dropping + 64-way parallel patterns beat the 1982 law)",
		r.ModernExponent)
	return t.Render()
}

// Eq1Scaling measures the two flows over a multiplier family and fits
// power laws. sizes selects the multiplier widths (defaults keep the
// run around a second).
func Eq1Scaling(sizes []int) Result {
	if len(sizes) == 0 {
		sizes = []int{2, 3, 4, 5, 6}
	}
	var res Eq1Result
	var ns []int
	var classicalT, modernT []float64
	for _, n := range sizes {
		c := circuits.ArrayMultiplier(n)
		cl := fault.Collapse(c)
		view := atpg.PrimaryView(c)

		// Classical 1982 flow: a test set whose length grows with the
		// fault count, graded by serial fault simulation without
		// dropping — N faults x N patterns x N-gate passes => N^3.
		rng := rand.New(rand.NewSource(1))
		pats := make([][]bool, len(cl.Reps))
		for i := range pats {
			p := make([]bool, len(c.PIs))
			for j := range p {
				p[j] = rng.Intn(2) == 1
			}
			pats[i] = p
		}
		start := time.Now()
		for _, f := range cl.Reps {
			for _, p := range pats {
				fault.DetectsCombinational(c, p, f)
			}
		}
		classical := time.Since(start).Seconds()

		// Modern flow: deterministic ATPG with random-first phase and
		// PPSFP dropping.
		start = time.Now()
		atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 128})
		modern := time.Since(start).Seconds()

		res.Points = append(res.Points, Eq1Point{Gates: c.NumGates(), ClassicalSecs: classical, ModernSecs: modern})
		ns = append(ns, c.NumGates())
		classicalT = append(classicalT, classical)
		modernT = append(modernT, modern)
	}
	if _, x, err := cost.FitPowerLaw(ns, classicalT); err == nil {
		res.ClassicalExponent = x
	}
	if _, x, err := cost.FitPowerLaw(ns, modernT); err == nil {
		res.ModernExponent = x
	}
	return res
}

// ExhaustiveResult reproduces the 2^(N+M) wall.
type ExhaustiveResult struct {
	Patterns float64
	Years    float64
}

// Render prints the §I.B example.
func (r ExhaustiveResult) Render() string {
	t := &text{title: "§I.B — exhaustive functional test wall"}
	t.addf("N=25 inputs, M=50 latches: 2^75 = %.3g patterns (paper: 3.8×10^22)", r.Patterns)
	t.addf("at 1 µs per pattern: %.3g years (paper: over a billion)", r.Years)
	return t.Render()
}

// Exhaustive reproduces the paper's example.
func Exhaustive() Result {
	p, y := cost.PaperExhaustiveExample()
	return ExhaustiveResult{Patterns: p, Years: y}
}

// RuleOfTenResult is the §I.C cost escalation.
type RuleOfTenResult struct{ Costs []float64 }

// Render prints the table.
func (r RuleOfTenResult) Render() string {
	t := &text{title: "§I.C — rule-of-ten cost escalation"}
	tb := &table{header: []string{"level", "cost per fault"}}
	for l := cost.Chip; l <= cost.Field; l++ {
		tb.add(l.String(), fmt.Sprintf("$%.2f", r.Costs[l]))
	}
	t.addTable(tb)
	return t.Render()
}

// RuleOfTen reproduces the $0.30 → $300 escalation.
func RuleOfTen() Result {
	return RuleOfTenResult{Costs: cost.RuleOfTenTable(0.30)}
}

func init() {
	register("fig01", "Fig. 1: stuck-at test on an AND gate", Fig1)
	register("universe", "§I: fault universe, collapsing, simulation work", FaultUniverse)
	register("eq1", "Eq. (1): T = K·N^x runtime scaling", func() Result { return Eq1Scaling(nil) })
	register("exhaustive", "§I.B: 2^(N+M) exhaustive testing wall", Exhaustive)
	register("ruleoften", "§I.C: rule-of-ten cost escalation", RuleOfTen)
}
