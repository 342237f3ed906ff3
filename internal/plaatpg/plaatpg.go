// Package plaatpg implements deterministic test generation for PLA
// structures — Muehldorf & Williams' "optimized stuck fault test
// patterns for PLA macros" ([84] in the paper), the constructive
// answer to Fig. 22's random-pattern resistance.
//
// For a two-level AND-OR PLA the stuck-at universe has a crisp
// structure, and a small deterministic set covers it:
//
//   - term activation: for each product term, the unique pattern
//     satisfying all its literals (other terms feeding the same outputs
//     held off when possible) tests every literal s-a-0 at once, the
//     term's output s-a-0, and the OR inputs;
//   - literal walk: for each literal of each term, the activation
//     pattern with that one literal complemented tests the literal's
//     s-a-1 (the term must NOT fire through a broken literal).
//
// The set size is Σ(1 + width(term)) — linear in the PLA description
// where exhaustive testing is 2ⁿ and random testing needs ~2^width per
// term.
package plaatpg

import (
	"context"
	"fmt"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

// Spec describes the PLA being tested: it must have been produced by
// circuits.PLA (inputs I0.., product gates PT0.., outputs Y0..).
type Spec struct {
	NIn     int
	Cubes   []circuits.Cube
	Outputs [][]int
}

// termReaders inverts the output lists: for each term, which outputs
// read it.
func (s Spec) termReaders() [][]int {
	readers := make([][]int, len(s.Cubes))
	for out, terms := range s.Outputs {
		for _, t := range terms {
			readers[t] = append(readers[t], out)
		}
	}
	return readers
}

// activation returns the input pattern that fires term t and, where
// the free inputs allow, keeps sibling terms (sharing an output with
// t) off so the term's firing is observable.
func (s Spec) activation(t int) []bool {
	p := make([]bool, s.NIn)
	fixed := make([]bool, s.NIn)
	for i, l := range s.Cubes[t] {
		switch {
		case l > 0:
			p[i] = true
			fixed[i] = true
		case l < 0:
			p[i] = false
			fixed[i] = true
		}
	}
	// Greedily disable each sibling term by violating one of its free
	// literals.
	readers := s.termReaders()
	shared := map[int]bool{}
	for _, out := range readers[t] {
		for _, other := range s.Outputs[out] {
			if other != t {
				shared[other] = true
			}
		}
	}
	for other := range shared {
		satisfiedByFixed := true
		for i, l := range s.Cubes[other] {
			if l == 0 {
				continue
			}
			want := l > 0
			if fixed[i] && p[i] != want {
				satisfiedByFixed = false
				break
			}
		}
		if !satisfiedByFixed {
			continue // already off under the fixed literals
		}
		// Violate a free literal of the sibling.
		for i, l := range s.Cubes[other] {
			if l == 0 || fixed[i] {
				continue
			}
			p[i] = l < 0 // the opposite of what the sibling wants
			fixed[i] = true
			break
		}
	}
	return p
}

// Generate builds the deterministic PLA test set.
func Generate(s Spec) [][]bool {
	var out [][]bool
	for t := range s.Cubes {
		act := s.activation(t)
		out = append(out, act)
		for i, l := range s.Cubes[t] {
			if l == 0 {
				continue
			}
			walk := append([]bool(nil), act...)
			walk[i] = !walk[i]
			out = append(out, walk)
		}
	}
	return out
}

// BuildAndTest constructs the PLA circuit from the spec, generates the
// deterministic set, and fault-grades it; it returns the circuit, the
// patterns and the coverage.
func BuildAndTest(name string, s Spec) (*logic.Circuit, [][]bool, float64) {
	c := circuits.PLA(name, s.NIn, s.Cubes, s.Outputs)
	cl := fault.Collapse(c)
	pats := Generate(s)
	res, _ := fault.Simulate(context.Background(), c, cl.Reps, pats, fault.Options{})
	return c, pats, res.Coverage()
}

// TestableCoverage grades only the faults on PLA logic reachable from
// the outputs (the circuits.PLA construction instantiates an inverter
// per input even when unused, and unused inverters are untestable by
// construction). Returns coverage over the reachable-fault subset.
func TestableCoverage(c *logic.Circuit, pats [][]bool) (float64, int, int) {
	cl := fault.Collapse(c)
	reachable := reachableFromOutputs(c)
	var targets []fault.Fault
	for _, f := range cl.Reps {
		if reachable[f.Gate] {
			targets = append(targets, f)
		}
	}
	res, _ := fault.Simulate(context.Background(), c, targets, pats, fault.Options{})
	return res.Coverage(), res.NumCaught, len(targets)
}

func reachableFromOutputs(c *logic.Circuit) []bool {
	seen := make([]bool, c.NumNets())
	var stack []int
	stack = append(stack, c.POs...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, c.Gates[n].Fanin...)
	}
	return seen
}

// Sizes reports the arithmetic of the paper's argument: deterministic
// set size vs exhaustive and expected-random sizes.
func Sizes(s Spec) (deterministic int, exhaustive float64, hardestRandom float64) {
	deterministic = 0
	maxWidth := 0
	for _, cube := range s.Cubes {
		w := 0
		for _, l := range cube {
			if l != 0 {
				w++
			}
		}
		deterministic += 1 + w
		if w > maxWidth {
			maxWidth = w
		}
	}
	exhaustive = pow2(s.NIn)
	hardestRandom = pow2(maxWidth)
	return
}

func pow2(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// Validate sanity-checks a spec against the generator's assumptions.
func Validate(s Spec) error {
	for t, cube := range s.Cubes {
		if len(cube) != s.NIn {
			return fmt.Errorf("plaatpg: cube %d width %d != %d inputs", t, len(cube), s.NIn)
		}
	}
	for out, terms := range s.Outputs {
		for _, t := range terms {
			if t < 0 || t >= len(s.Cubes) {
				return fmt.Errorf("plaatpg: output %d references term %d", out, t)
			}
		}
	}
	return nil
}
