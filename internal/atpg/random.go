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
	res := &RandomResult{Detected: make([]bool, len(faults))}
	h := newHarness(c, view, faults, res.Detected, fault.WorkersAuto, nil)
	defer h.reg.Timer("atpg.random").Time()()
	defer func() { h.reg.Counter("atpg.random.patterns").Add(int64(res.Applied)) }()
	for res.Applied < maxPatterns {
		block := make([][]bool, 0, 64)
		for k := 0; k < 64 && res.Applied+len(block) < maxPatterns; k++ {
			p := make([]bool, len(view.Inputs))
			for i := range p {
				p[i] = rng.Float64() < weights[i]
			}
			block = append(block, p)
		}
		useful := h.applyBlock(block, res.Detected)
		res.Patterns = append(res.Patterns, useful...)
		res.Applied += len(block)
		res.Coverage = h.coverage()
		if res.Coverage >= target {
			break
		}
	}
	return res
}

// AdaptiveRandomGenerate implements adaptive random test generation in
// the spirit of Parker [87]: input weights start uniform and adapt
// toward the bit values of recently-detecting patterns, so the
// generator drifts into the useful corners of the input space.
func AdaptiveRandomGenerate(c *logic.Circuit, view View, faults []fault.Fault,
	target float64, maxPatterns int, rng *rand.Rand) *RandomResult {
	n := len(view.Inputs)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 0.5
	}
	res := &RandomResult{Detected: make([]bool, len(faults))}
	h := newHarness(c, view, faults, res.Detected, fault.WorkersAuto, nil)
	defer h.reg.Timer("atpg.random").Time()()
	defer func() { h.reg.Counter("atpg.random.patterns").Add(int64(res.Applied)) }()
	const alpha = 0.15 // adaptation rate
	for res.Applied < maxPatterns {
		block := make([][]bool, 0, 64)
		for k := 0; k < 64 && res.Applied+len(block) < maxPatterns; k++ {
			p := make([]bool, n)
			for i := range p {
				p[i] = rng.Float64() < weights[i]
			}
			block = append(block, p)
		}
		useful := h.applyBlock(block, res.Detected)
		res.Patterns = append(res.Patterns, useful...)
		res.Applied += len(block)
		res.Coverage = h.coverage()
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
			if weights[i] < 0.05 {
				weights[i] = 0.05
			}
			if weights[i] > 0.95 {
				weights[i] = 0.95
			}
		}
		if res.Coverage >= target {
			break
		}
	}
	return res
}

// harness runs view-level fault simulation with dropping over an
// explicit fault list, backed by a fault.Session on the sharded engine
// so the same fast path serves scan views and plain combinational
// circuits — multicore when the live list is large enough to pay for
// it.
type harness struct {
	session *fault.Session
	reg     *telemetry.Registry
}

func newHarness(c *logic.Circuit, view View, faults []fault.Fault, detected []bool, workers int, reg *telemetry.Registry) *harness {
	reg = telemetry.OrDefault(reg)
	eng := fault.NewEngine(c, fault.Options{
		Workers: workers,
		View:    view,
		Metrics: reg,
	})
	return &harness{session: eng.NewSession(faults, detected), reg: reg}
}

// applyBlock simulates a block of up to 64 patterns against all live
// faults (with dropping), marks detections, and returns the subset of
// patterns that were the first detector of some fault.
func (h *harness) applyBlock(block [][]bool, detected []bool) [][]bool {
	usefulMask := h.session.ApplyBlock(block, detected)
	var useful [][]bool
	for usefulMask != 0 {
		i := bits.TrailingZeros64(usefulMask)
		usefulMask &= usefulMask - 1
		useful = append(useful, block[i])
	}
	return useful
}

// remaining reports the number of still-undetected faults.
func (h *harness) remaining() int { return h.session.Remaining() }

func (h *harness) coverage() float64 { return h.session.Coverage() }
