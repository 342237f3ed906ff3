package atpg_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
)

// TestUntestableVerdictsProvedExhaustively checks PODEM's verdicts
// against the whole input space of small random netlists with many
// redundant faults: 12 inputs, 80 gates, 6 outputs, fanin up to 4
// (seed 3 is the redundant80 netlist of the digest tests). At the
// default backtrack limit every collapsed fault must get a verdict.
// Each fault PODEM calls untestable must go undetected by all 4,096
// input patterns, and each fault it finds a test for must be detected
// by them, on Auto and, for redundant80, also on the serial backend,
// the interpreted reference (one full-circuit pass per fault and
// pattern, about ten times the rest of the test, so one netlist).
// Each returned test must detect its fault with its don't-cares
// filled either way.
func TestUntestableVerdictsProvedExhaustively(t *testing.T) {
	const nIn = 12
	pats := fault.ExhaustivePatterns(nIn)
	untestable := 0
	for seed := int64(0); seed < 6; seed++ {
		name := fmt.Sprintf("seed%d", seed)
		if seed == 3 {
			name = "redundant80"
		}
		t.Run(name, func(t *testing.T) {
			c := circuits.RandomCircuit(rand.New(rand.NewSource(seed)), nIn, 80, 6, 4)
			view := atpg.PrimaryView(c)
			s := atpg.NewSearcher(c, view)
			faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
			testable := make([]bool, len(faults))
			for i, f := range faults {
				cube, err := s.Podem(f, atpg.PodemConfig{})
				switch err {
				case nil:
					testable[i] = true
					for _, x := range []bool{false, true} {
						if !fault.DetectsCombinational(c, cube.Fill(func() bool { return x }), f) {
							t.Errorf("%s: test %s with X filled %v does not detect it", f.Name(c), cube, x)
						}
					}
				case atpg.ErrUntestable:
					untestable++
				default:
					t.Errorf("%s: no verdict: %v", f.Name(c), err)
				}
			}
			backends := []fault.Backend{fault.Auto}
			if seed == 3 {
				backends = append(backends, fault.BackendSerial)
			}
			for _, be := range backends {
				res, err := fault.NewEngine(c, fault.Options{Backend: be}).RunPacked(context.Background(), faults, pats)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range faults {
					if res.Detected[i] != testable[i] {
						t.Errorf("%v: %s: exhaustively detected %v, PODEM testable %v",
							be, f.Name(c), res.Detected[i], testable[i])
					}
				}
			}
		})
	}
	if untestable == 0 {
		t.Error("no fault was called untestable, so no verdict was checked")
	}
}
