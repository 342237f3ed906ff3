package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dft/internal/circuits"
	"dft/internal/fault"
)

// TestPropertyPodemTestsVerify: on random circuits, every cube PODEM
// returns detects its target fault, and ErrUntestable is only declared
// for faults that none of the 64 patterns over the 6 inputs detects,
// which proves the redundancy claim.
func TestPropertyPodemTestsVerify(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuits.RandomCircuit(rng, 6, 30, 3, 3)
		view := PrimaryView(c)
		u := fault.Universe(c)
		for _, fl := range u {
			cube, err := Podem(c, view, fl, PodemConfig{MaxBacktracks: 5000})
			switch err {
			case nil:
				if !Verify(c, view, fl, cube) {
					return false
				}
			case ErrUntestable:
				for x := 0; x < 1<<len(c.PIs); x++ {
					p := make([]bool, len(c.PIs))
					for i := range p {
						p[i] = x>>i&1 == 1
					}
					if fault.DetectsCombinational(c, p, fl) {
						return false // declared redundant but detectable
					}
				}
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEnginesAgreeOnTestability: PODEM and the D-algorithm
// must agree on which faults are testable (their cubes may differ).
func TestPropertyEnginesAgreeOnTestability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuits.RandomCircuit(rng, 5, 18, 2, 3)
		view := PrimaryView(c)
		u := fault.Universe(c)
		for _, fl := range u {
			_, e1 := Podem(c, view, fl, PodemConfig{MaxBacktracks: 20000})
			_, e2 := DAlg(c, view, fl, PodemConfig{MaxBacktracks: 20000})
			if e1 == ErrAborted || e2 == ErrAborted {
				continue // bounded search: no claim
			}
			if (e1 == nil) != (e2 == nil) {
				t.Logf("seed %d: fault %s: podem=%v dalg=%v", seed, fl.Name(c), e1, e2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Compaction coverage-preservation properties moved to
// internal/compact (which owns the compaction engine now) — see
// compact's property and fuzzdiff CheckCompaction tests.

// TestPropertyDominanceTargetsSuffice: generating tests only for the
// dominance-reduced target list still detects the dropped (dominating)
// faults — the definition of dominance.
func TestPropertyDominanceTargetsSuffice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := circuits.RandomCircuit(rng, 8, 40, 4, 4)
		cl := fault.CollapseEquiv(c, fault.Universe(c))
		dom := fault.CollapseDominance(c, cl.Reps)
		if len(dom) == len(cl.Reps) {
			return true // nothing reduced; vacuous
		}
		view := PrimaryView(c)
		res := Generate(c, view, dom, Config{Engine: EnginePodem, RandomSeed: seed})
		// Grade the FULL collapsed list with the dominance-targeted set.
		full := simViewQuick(c, view, cl.Reps, res.Patterns)
		reduced := simViewQuick(c, view, dom, res.Patterns)
		// Every fault detectable in the reduced run must come with the
		// dominating faults for free: full coverage count can only be
		// at least the reduced one plus the dropped-but-dominated set
		// that had a detected dominee. Weak but useful check: the full
		// list's coverage ratio must not fall below the reduced one by
		// more than the genuinely-undetected share.
		return full.Coverage() >= reduced.Coverage()*float64(len(dom))/float64(len(cl.Reps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
