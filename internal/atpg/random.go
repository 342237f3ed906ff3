package atpg

import (
	"math/bits"
	"math/rand"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// RandomResult reports a random-pattern generation run.
type RandomResult struct {
	Patterns [][]bool // the patterns that detected at least one new fault
	Applied  int      // total patterns simulated
	Coverage float64
	Detected []bool // per fault in the given list
}

// RandomGenerate applies random patterns (each view-input bit set with
// probability 0.5) in 64-pattern blocks with fault dropping, keeping
// the useful ones, until target coverage is reached or maxPatterns have
// been applied. This is the paper's baseline "combinational logic is
// highly susceptible to random patterns" engine.
func RandomGenerate(c *logic.Circuit, view View, faults []fault.Fault,
	target float64, maxPatterns int, rng *rand.Rand) *RandomResult {
	weights := make([]float64, len(view.Inputs))
	for i := range weights {
		weights[i] = 0.5
	}
	return WeightedRandomGenerate(c, view, faults, target, maxPatterns, weights, rng)
}

// WeightedRandomGenerate is RandomGenerate with a per-input probability
// of driving a 1 — the weighted random patterns of Schnurmann et al.
// [95]. Weights skewed toward the values that exercise deep AND/OR
// structures dramatically improve coverage on biased circuits.
func WeightedRandomGenerate(c *logic.Circuit, view View, faults []fault.Fault,
	target float64, maxPatterns int, weights []float64, rng *rand.Rand) *RandomResult {
	if len(weights) != len(view.Inputs) {
		panic("atpg: weight count mismatch")
	}
	return weightedRandom(c, view, faults, target, maxPatterns, weights, rng, nil)
}

// AdaptiveRandomGenerate implements adaptive random test generation in
// the spirit of Parker [87]: input weights start uniform and adapt
// toward the bit values of recently-detecting patterns, so the
// generator drifts into the useful corners of the input space.
func AdaptiveRandomGenerate(c *logic.Circuit, view View, faults []fault.Fault,
	target float64, maxPatterns int, rng *rand.Rand) *RandomResult {
	weights := make([]float64, len(view.Inputs))
	for i := range weights {
		weights[i] = 0.5
	}
	const alpha = 0.15 // adaptation rate
	return weightedRandom(c, view, faults, target, maxPatterns, weights, rng, func(useful [][]bool) {
		// Adapt toward detecting patterns; relax toward 0.5 when a
		// block was useless (escape dead regions).
		if len(useful) > 0 {
			for _, p := range useful {
				for i, b := range p {
					targetW := 0.0
					if b {
						targetW = 1.0
					}
					weights[i] += alpha * (targetW - weights[i])
				}
			}
		} else {
			for i := range weights {
				weights[i] += alpha * (0.5 - weights[i])
			}
		}
		// Clamp away from degenerate 0/1 weights.
		for i := range weights {
			weights[i] = min(max(weights[i], 0.05), 0.95)
		}
	})
}

// weightedRandom is the random-pattern loop behind the three
// generators: 64-pattern blocks, bit i of every pattern set with
// probability weights[i], graded through a dropping fault.Session on
// the process-wide registry until target coverage is reached or
// maxPatterns have been applied. After every block that falls short of
// target, adapt (when non-nil) sees the block's useful patterns and
// may move the weights.
func weightedRandom(c *logic.Circuit, view View, faults []fault.Fault, target float64, maxPatterns int,
	weights []float64, rng *rand.Rand, adapt func(useful [][]bool)) *RandomResult {
	res := &RandomResult{Detected: make([]bool, len(faults))}
	reg := telemetry.Default()
	s := fault.NewEngine(c, fault.Options{View: view, Metrics: reg}).NewSession(faults, res.Detected)
	defer reg.Timer("atpg.random").Time()()
	defer func() { reg.Counter("atpg.random.patterns").Add(int64(res.Applied)) }()
	for res.Applied < maxPatterns {
		block := randomBlock(min(64, maxPatterns-res.Applied), len(weights), func(i int) bool {
			return rng.Float64() < weights[i]
		})
		useful := usefulPatterns(block, s.ApplyBlock(block, res.Detected))
		res.Patterns = append(res.Patterns, useful...)
		res.Applied += len(block)
		res.Coverage = s.Coverage()
		if res.Coverage >= target {
			break
		}
		if adapt != nil {
			adapt(useful)
		}
	}
	return res
}

// randomBlock draws n patterns of width bits, bit i of each from
// bit(i), pattern by pattern and bit by bit, so a seeded draw function
// yields the same block every run.
func randomBlock(n, width int, bit func(i int) bool) [][]bool {
	block := make([][]bool, n)
	for k := range block {
		p := make([]bool, width)
		for i := range p {
			p[i] = bit(i)
		}
		block[k] = p
	}
	return block
}

// usefulPatterns returns the patterns of block whose bits are set in
// a Session.ApplyBlock useful mask, in block order.
func usefulPatterns(block [][]bool, mask uint64) [][]bool {
	var useful [][]bool
	for ; mask != 0; mask &= mask - 1 {
		useful = append(useful, block[bits.TrailingZeros64(mask)])
	}
	return useful
}
