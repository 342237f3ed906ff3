package experiments

import (
	"fmt"
	"math/rand"

	"dft/internal/atpg"
	"dft/internal/bridge"
	"dft/internal/circuits"
	"dft/internal/cmos"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/plaatpg"
	"dft/internal/seqatpg"
	"dft/internal/testability"
)

// BridgeResult covers the §I.A bridging-fault claim.
type BridgeResult struct {
	SSACoverage    float64
	BridgeTotal    int
	BridgeDetected int
}

// Render prints the measurement.
func (r BridgeResult) Render() string {
	t := &text{title: "§I.A — bridging faults under a high stuck-at coverage test set"}
	t.addf("stuck-at coverage of the test set : %.1f%%", r.SSACoverage*100)
	t.addf("bridging faults detected          : %d/%d (%.1f%%)",
		r.BridgeDetected, r.BridgeTotal, 100*float64(r.BridgeDetected)/float64(r.BridgeTotal))
	t.addf("paper: \"bridging faults have been detected by having a high level ... single")
	t.addf("stuck-at fault coverage\" — the correlation, measured.")
	return t.Render()
}

// Bridging runs the experiment.
func Bridging() Result {
	c := circuits.RippleAdder(6)
	cl := fault.Collapse(c)
	gen := atpg.Generate(c, atpg.PrimaryView(c), cl.Reps,
		atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 128})
	rng := rand.New(rand.NewSource(9))
	bridges := bridge.Universe(c, 1, 200, rng)
	res := bridge.Grade(c, bridges, gen.Patterns)
	return BridgeResult{
		SSACoverage:    gen.RawCover,
		BridgeTotal:    res.Total,
		BridgeDetected: res.Detected,
	}
}

// CMOSResult covers the §I.A stuck-open warning.
type CMOSResult struct {
	Universe        int
	BestOrderMiss   int // stuck-opens missed by some ordering of a 100%-SSA set
	TwoPatternFound int
	TwoPatternHit   int
}

// Render prints the measurement.
func (r CMOSResult) Render() string {
	t := &text{title: "§I.A — CMOS stuck-open faults: combinational patterns are not enough"}
	t.addf("stuck-open universe (all-NAND c17)            : %d faults", r.Universe)
	t.addf("100%%-SSA set, adversarial ordering, missed    : %d", r.BestOrderMiss)
	t.addf("dedicated two-pattern tests generated/detected: %d/%d", r.TwoPatternFound, r.TwoPatternHit)
	t.addf("paper: stuck-opens \"could change a combinational network into a sequential")
	t.addf("network\" — pattern ORDER decides detection; two-pattern tests restore it.")
	return t.Render()
}

// CMOSStuckOpen runs the experiment.
func CMOSStuckOpen() Result {
	c := circuits.C17()
	cl := fault.Collapse(c)
	gen := atpg.Generate(c, atpg.PrimaryView(c), cl.Reps, atpg.Config{Engine: atpg.EnginePodem})
	u := cmos.Universe(c)
	rng := rand.New(rand.NewSource(5))

	worstMiss := 0
	pats := append([][]bool(nil), gen.Patterns...)
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(pats), func(i, j int) { pats[i], pats[j] = pats[j], pats[i] })
		if miss := len(u) - cmos.GradeSequence(c, u, pats); miss > worstMiss {
			worstMiss = miss
		}
	}
	det, found := cmos.GradeTwoPattern(c, u, rng)
	return CMOSResult{
		Universe:        len(u),
		BestOrderMiss:   worstMiss,
		TwoPatternFound: found,
		TwoPatternHit:   det,
	}
}

// SeqATPGResult covers bounded time-frame expansion.
type SeqATPGResult struct {
	Circuit    string
	Faults     int
	Detected   int
	Depths     map[int]int
	DeepFailed bool // a genuinely deep fault refused the frame bound
}

// Render prints the measurement.
func (r SeqATPGResult) Render() string {
	t := &text{title: "Sequential ATPG by time-frame expansion (the cost scan removes)"}
	t.addf("circuit %s: %d/%d faults testable within 10 frames", r.Circuit, r.Detected, r.Faults)
	tb := &table{header: []string{"frames needed", "faults"}}
	for d := 1; d <= 10; d++ {
		if n, ok := r.Depths[d]; ok {
			tb.add(fmt.Sprint(d), fmt.Sprint(n))
		}
	}
	t.addTable(tb)
	t.addf("deep counter bit refused a 4-frame bound: %v (the exponential wall)", r.DeepFailed)
	return t.Render()
}

// SequentialATPG runs the experiment.
func SequentialATPG() Result {
	c := circuits.Counter(4)
	cl := fault.Collapse(c)
	det, depths := seqatpg.CoverageWithinFrames(c, cl.Reps, seqatpg.Config{MaxFrames: 10, MaxBacktracks: 2000})

	deep := circuits.Counter(6)
	t5, _ := deep.NetByName("T5")
	_, err := seqatpg.Generate(deep, fault.Fault{Gate: t5, Pin: fault.Stem, SA: 0}, seqatpg.Config{MaxFrames: 4})
	return SeqATPGResult{
		Circuit:    c.Name,
		Faults:     len(cl.Reps),
		Detected:   det,
		Depths:     depths,
		DeepFailed: err != nil,
	}
}

// ProbResult covers random-pattern testability prediction.
type ProbResult struct {
	PLAExpected   float64
	AdderExpected float64
	WeightsHigh   bool
	WeightedWins  bool
}

// Render prints the prediction and the weighted-random payoff.
func (r ProbResult) Render() string {
	t := &text{title: "Signal probabilities ([45]) — predicting Fig. 22 and deriving weights ([95])"}
	t.addf("expected random patterns to catch the hardest fault:")
	t.addf("  20-literal PLA product : %.3g (≈2^20)", r.PLAExpected)
	t.addf("  6-bit ripple adder     : %.3g", r.AdderExpected)
	t.addf("derived AND-tree weights pulled high: %v; weighted beats uniform: %v",
		r.WeightsHigh, r.WeightedWins)
	return t.Render()
}

// Probability runs the experiment.
func Probability() Result {
	cube := make(circuits.Cube, 20)
	for i := range cube {
		cube[i] = 1
	}
	pla := circuits.PLA("andpla", 20, []circuits.Cube{cube}, [][]int{{0}})
	add := circuits.RippleAdder(6)
	r := ProbResult{
		PLAExpected:   testability.ExpectedPatterns(pla, fault.Collapse(pla).Reps, nil),
		AdderExpected: testability.ExpectedPatterns(add, fault.Collapse(add).Reps, nil),
	}
	// Derived weights on an AND tree.
	tree := andTree(16)
	w := testability.DeriveWeights(tree)
	r.WeightsHigh = true
	for _, wi := range w {
		if wi < 0.7 {
			r.WeightsHigh = false
		}
	}
	cl := fault.Collapse(tree)
	uni := atpg.RandomGenerate(tree, atpg.PrimaryView(tree), cl.Reps, 1.0, 2000, rand.New(rand.NewSource(1)))
	wres := atpg.WeightedRandomGenerate(tree, atpg.PrimaryView(tree), cl.Reps, 1.0, 2000, w, rand.New(rand.NewSource(1)))
	r.WeightedWins = wres.Coverage > uni.Coverage
	return r
}

func andTree(n int) *logic.Circuit {
	c := logic.New("andtree")
	var layer []int
	for i := 0; i < n; i++ {
		layer = append(layer, c.AddInput(fmt.Sprintf("i%d", i)))
	}
	for len(layer) > 1 {
		var next []int
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, c.AddGate(logic.And, "", layer[i], layer[i+1]))
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	c.MarkOutput(layer[0])
	return c.MustFinalize()
}

// PLAATPGResult covers the [84] deterministic PLA test generator.
type PLAATPGResult struct {
	Deterministic int
	DetCoverage   float64
	RandomBudget  int
	RandCoverage  float64
	Exhaustive    float64
}

// Render prints the comparison.
func (r PLAATPGResult) Render() string {
	t := &text{title: "PLA macro test patterns ([84]) — the deterministic answer to Fig. 22"}
	t.addf("deterministic set: %d patterns -> %.1f%% coverage of reachable faults",
		r.Deterministic, r.DetCoverage*100)
	t.addf("random patterns  : %d patterns -> %.1f%% coverage", r.RandomBudget, r.RandCoverage*100)
	t.addf("exhaustive would need %.3g patterns", r.Exhaustive)
	return t.Render()
}

// PLAATPG runs the deterministic-PLA-test experiment.
func PLAATPG() Result {
	rng := rand.New(rand.NewSource(7))
	s := plaatpg.Spec{NIn: 18}
	for t := 0; t < 6; t++ {
		cube := make(circuits.Cube, s.NIn)
		perm := rng.Perm(s.NIn)
		for _, i := range perm[:16] {
			if rng.Intn(2) == 0 {
				cube[i] = 1
			} else {
				cube[i] = -1
			}
		}
		s.Cubes = append(s.Cubes, cube)
	}
	s.Outputs = [][]int{{0, 2, 4}, {1, 3, 5}}
	c, pats, _ := plaatpg.BuildAndTest("exp_pla", s)
	detCov, _, _ := plaatpg.TestableCoverage(c, pats)
	budget := 8 * len(pats)
	rpats := randomPatterns(s.NIn, budget, 3)
	randCov, _, _ := plaatpg.TestableCoverage(c, rpats)
	_, exh, _ := plaatpg.Sizes(s)
	return PLAATPGResult{
		Deterministic: len(pats),
		DetCoverage:   detCov,
		RandomBudget:  budget,
		RandCoverage:  randCov,
		Exhaustive:    exh,
	}
}

func init() {
	register("bridging", "§I.A: bridging faults vs stuck-at coverage", Bridging)
	register("cmos", "§I.A: CMOS stuck-open / two-pattern testing", CMOSStuckOpen)
	register("seqatpg", "sequential ATPG by time-frame expansion", SequentialATPG)
	register("probability", "signal probabilities and weighted random", Probability)
	register("plaatpg", "PLA macro deterministic tests ([84])", PLAATPG)
}
