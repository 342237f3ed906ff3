package fault

import (
	"context"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Replay in either order must catch exactly the faults a fresh
// one-shot Simulate catches, at every worker count and on engines
// configured for every backend (sessions always run the PPSFP block
// path, but the pooled simulators are shared with backend runs).
func TestSessionReplayMatchesSimulate(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 192, 29)
	packed := PackPatternSet(len(c.PIs), pats)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		for _, w := range []int{1, 4} {
			for _, order := range []ReplayOrder{ReplayForward, ReplayReverse} {
				eng := NewEngine(c, Options{Backend: be, Workers: w, Metrics: telemetry.NewRegistry()})
				s := eng.NewSession(faults)
				detected := make([]bool, len(faults))
				credits, err := s.Replay(context.Background(), packed, order, detected)
				if err != nil {
					t.Fatal(err)
				}
				if s.Caught() != want.NumCaught {
					t.Fatalf("%v workers=%d order=%v: caught %d, want %d", be, w, order, s.Caught(), want.NumCaught)
				}
				for i := range faults {
					if detected[i] != want.Detected[i] {
						t.Fatalf("%v workers=%d order=%v fault %d: detected %v, want %v",
							be, w, order, i, detected[i], want.Detected[i])
					}
				}
				sum := 0
				for _, n := range credits {
					sum += n
				}
				if sum != want.NumCaught {
					t.Fatalf("%v workers=%d order=%v: credit sum %d, want %d", be, w, order, sum, want.NumCaught)
				}
			}
		}
	}
}

// Forward replay assigns each fault's credit to the same pattern a
// dropping Simulate records in DetectedBy: per-pattern credit counts
// must equal the DetectedBy histogram.
func TestSessionReplayForwardMatchesDetectedBy(t *testing.T) {
	c := circuits.ALU74181()
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 160, 7)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	hist := make([]int, len(pats))
	for fi := range faults {
		if p := want.DetectedBy[fi]; p >= 0 {
			hist[p]++
		}
	}
	eng := NewEngine(c, Options{Workers: 4, Metrics: telemetry.NewRegistry()})
	s := eng.NewSession(faults)
	credits, err := s.Replay(context.Background(), PackPatternSet(len(c.PIs), pats), ReplayForward, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := range pats {
		if credits[p] != hist[p] {
			t.Fatalf("pattern %d: credit %d, want %d", p, credits[p], hist[p])
		}
	}
}

// The reverse-order compaction theorem: the patterns credited by a
// reverse replay, kept in original order, catch exactly the faults the
// full set catches — verified by a fresh Simulate over the kept set.
func TestSessionReplayReverseKeptCoverage(t *testing.T) {
	for _, c := range []*logic.Circuit{circuits.ArrayMultiplier(5), circuits.ALU74181()} {
		faults := CollapseEquiv(c, Universe(c)).Reps
		pats := enginePatterns(len(c.PIs), 256, 41)
		want, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(c, Options{Workers: 4, Metrics: telemetry.NewRegistry()})
		s := eng.NewSession(faults)
		credits, err := s.Replay(context.Background(), PackPatternSet(len(c.PIs), pats), ReplayReverse, nil)
		if err != nil {
			t.Fatal(err)
		}
		var kept [][]bool
		for p, n := range credits {
			if n > 0 {
				kept = append(kept, pats[p])
			}
		}
		if len(kept) >= len(pats) {
			t.Fatalf("%s: reverse replay kept all %d patterns", c.Name, len(pats))
		}
		got, err := Simulate(context.Background(), c, faults, kept,
			Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumCaught != want.NumCaught {
			t.Fatalf("%s: kept set catches %d faults, full set %d", c.Name, got.NumCaught, want.NumCaught)
		}
		for i := range faults {
			if got.Detected[i] != want.Detected[i] {
				t.Fatalf("%s fault %d: kept-set detection diverged", c.Name, i)
			}
		}
	}
}

// Reset re-arms the session: a second replay over the same set must
// reproduce the first one's credits exactly, and interleaving with
// ApplyBlock must not disturb it.
func TestSessionResetReplay(t *testing.T) {
	c := circuits.RippleAdder(6)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 128, 3)
	packed := PackPatternSet(len(c.PIs), pats)
	eng := NewEngine(c, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	s := eng.NewSession(faults)
	first, err := s.Replay(context.Background(), packed, ReplayReverse, nil)
	if err != nil {
		t.Fatal(err)
	}
	caught := s.Caught()
	s.Reset()
	if s.Caught() != 0 || s.Remaining() != len(faults) {
		t.Fatalf("after Reset: caught=%d remaining=%d", s.Caught(), s.Remaining())
	}
	// Dirty the live list with a forward block pass, then reset again.
	s.ApplyBlock(pats[:64], make([]bool, len(faults)))
	s.Reset()
	again, err := s.Replay(context.Background(), packed, ReplayReverse, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Caught() != caught {
		t.Fatalf("second replay caught %d, first %d", s.Caught(), caught)
	}
	for p := range first {
		if first[p] != again[p] {
			t.Fatalf("pattern %d: credits %d then %d", p, first[p], again[p])
		}
	}
}

// Per-pattern credits are sharding-invariant: every worker count must
// produce the identical credit vector, not just the same totals.
func TestSessionReplayWorkerInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := Universe(c) // uncollapsed: large enough to shard
	pats := enginePatterns(len(c.PIs), 192, 11)
	packed := PackPatternSet(len(c.PIs), pats)
	var base []int
	for _, w := range []int{1, 2, 4, 8} {
		eng := NewEngine(c, Options{Workers: w, Metrics: telemetry.NewRegistry()})
		s := eng.NewSession(faults)
		credits, err := s.Replay(context.Background(), packed, ReplayReverse, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = credits
			continue
		}
		for p := range base {
			if credits[p] != base[p] {
				t.Fatalf("workers=%d pattern %d: credit %d, want %d", w, p, credits[p], base[p])
			}
		}
	}
}

func TestSessionReplayCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := Universe(c)
	packed := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), 128, 2))
	eng := NewEngine(c, Options{Metrics: telemetry.NewRegistry()})
	s := eng.NewSession(faults)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if credits, err := s.Replay(ctx, packed, ReplayReverse, nil); err == nil || credits != nil {
		t.Fatalf("want cancellation error, got credits=%v err=%v", credits, err)
	}
}
