// Package delay implements transition (gate-delay) fault testing, the
// model behind the paper's delay-test references ([81] Hsieh et al.,
// "Delay test generation"; [108] Storey & Barry, "Delay test
// simulation"): a net is slow-to-rise or slow-to-fall, so a value
// change launched by one pattern has not arrived when the next pattern
// samples it. Detection therefore needs a two-pattern (launch,
// capture) test: the first pattern sets the net to its initial value,
// the second is a stuck-at test for the late value.
package delay

import (
	"fmt"
	"math/rand"

	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

// Fault is a transition fault on a net.
type Fault struct {
	Net        int
	SlowToRise bool // true: 0→1 late; false: 1→0 late
}

// Name renders the fault.
func (f Fault) Name(c *logic.Circuit) string {
	dir := "slow-to-fall"
	if f.SlowToRise {
		dir = "slow-to-rise"
	}
	return fmt.Sprintf("%s %s", c.NameOf(f.Net), dir)
}

// initial returns the value the launch pattern must establish (the
// value the late transition starts from — and the value the capture
// pattern still sees).
func (f Fault) initial() bool { return !f.SlowToRise }

// inducedStuck is the stuck-at fault the capture pattern must detect:
// the net appears stuck at its initial value.
func (f Fault) inducedStuck() fault.Fault {
	return fault.Fault{Gate: f.Net, Pin: fault.Stem, SA: logic.FromBool(f.initial())}
}

// Universe enumerates both transition faults on every combinational
// gate and primary input.
func Universe(c *logic.Circuit) []Fault {
	var out []Fault
	for id, g := range c.Gates {
		if g.Type == logic.DFF {
			continue
		}
		out = append(out, Fault{Net: id, SlowToRise: true}, Fault{Net: id, SlowToRise: false})
	}
	return out
}

// DetectsPair reports whether the (launch, capture) pattern pair
// detects the transition fault on a combinational circuit: the launch
// pattern drives the net to the initial value, the capture pattern
// requires the opposite value and propagates the stale one to an
// output.
func DetectsPair(c *logic.Circuit, f Fault, launch, capture []bool) bool {
	v1 := evalValue(c, launch, f.Net)
	if v1 != f.initial() {
		return false // no such transition launched
	}
	// During capture the net holds the stale value iff the good
	// machine would have transitioned — i.e. the induced stuck-at is
	// excited and observed.
	return fault.DetectsCombinational(c, capture, f.inducedStuck())
}

func evalValue(c *logic.Circuit, pi []bool, net int) bool {
	return sim.Eval(c, pi, make([]bool, len(c.DFFs)))[net]
}

// TwoPattern is a (launch, capture) pair.
type TwoPattern struct {
	Launch  []bool
	Capture []bool
}

// Generate builds a two-pattern test for the transition fault: PODEM
// supplies the capture pattern (a test for the induced stuck-at) and a
// justification search supplies the launch pattern.
func Generate(c *logic.Circuit, f Fault, rng *rand.Rand) (TwoPattern, error) {
	search := atpg.NewSearcher(c, atpg.PrimaryView(c))
	cube, err := search.Podem(f.inducedStuck(), atpg.PodemConfig{})
	if err != nil {
		return TwoPattern{}, fmt.Errorf("delay: no capture test for %s: %w", f.Name(c), err)
	}
	capture := cube.Bools()
	// Launch: drive the net to initial. A PODEM test for the opposite
	// stuck-at necessarily sets the net to initial.
	saInit := fault.Fault{Gate: f.Net, Pin: fault.Stem, SA: logic.FromBool(!f.initial())}
	if cube2, err := search.Podem(saInit, atpg.PodemConfig{}); err == nil {
		launch := cube2.Bools()
		if evalValue(c, launch, f.Net) == f.initial() {
			return TwoPattern{Launch: launch, Capture: capture}, nil
		}
	}
	for trial := 0; trial < 2048; trial++ {
		launch := make([]bool, len(c.PIs))
		for i := range launch {
			launch[i] = rng.Intn(2) == 1
		}
		if evalValue(c, launch, f.Net) == f.initial() {
			return TwoPattern{Launch: launch, Capture: capture}, nil
		}
	}
	return TwoPattern{}, fmt.Errorf("delay: no launch pattern for %s", f.Name(c))
}

// GradeSequence measures transition-fault coverage of a pattern
// sequence applied in order: pair i = (patterns[i], patterns[i+1]).
// This is how an ordered stuck-at set performs as a delay test.
func GradeSequence(c *logic.Circuit, faults []Fault, patterns [][]bool) int {
	detected := 0
	for _, f := range faults {
		for i := 0; i+1 < len(patterns); i++ {
			if DetectsPair(c, f, patterns[i], patterns[i+1]) {
				detected++
				break
			}
		}
	}
	return detected
}

// GradeTwoPattern generates dedicated pairs and counts detections.
func GradeTwoPattern(c *logic.Circuit, faults []Fault, rng *rand.Rand) (detected, generated int) {
	for _, f := range faults {
		tp, err := Generate(c, f, rng)
		if err != nil {
			continue
		}
		generated++
		if DetectsPair(c, f, tp.Launch, tp.Capture) {
			detected++
		}
	}
	return detected, generated
}
