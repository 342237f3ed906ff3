package fault

import (
	"context"
	"reflect"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// creditMask packs the credited patterns of a Credits vector into a
// keep mask for an nPats-column matrix.
func creditMask(credits []int, nPats int) []uint64 {
	keep := make([]uint64, detailWords(nPats))
	for _, p := range credits {
		if p >= 0 {
			keep[p/64] |= 1 << uint(p%64)
		}
	}
	return keep
}

// Credits in either order must credit exactly the faults a fresh
// one-shot Simulate catches, each to a pattern that detects it, at
// every worker count and on both packed detail backends.
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
			eng := NewEngine(c, Options{Backend: be, Workers: w, Metrics: telemetry.NewRegistry()})
			dr, err := eng.RunDetail(context.Background(), faults, packed)
			if err != nil {
				t.Fatal(err)
			}
			for _, reverse := range []bool{false, true} {
				credits := dr.Credits(nil, reverse)
				caught := 0
				for fi, p := range credits {
					if (p >= 0) != want.Detected[fi] {
						t.Fatalf("%v workers=%d reverse=%v fault %d: credit %d, detected %v",
							be, w, reverse, fi, p, want.Detected[fi])
					}
					if p < 0 {
						continue
					}
					caught++
					if !dr.Detects(fi, p) {
						t.Fatalf("%v workers=%d reverse=%v fault %d: credited pattern %d does not detect it",
							be, w, reverse, fi, p)
					}
				}
				if caught != want.NumCaught {
					t.Fatalf("%v workers=%d reverse=%v: %d credited, want %d", be, w, reverse, caught, want.NumCaught)
				}
			}
		}
	}
}

// Forward credits go to the same pattern a dropping Simulate records
// in DetectedBy: per-pattern credit counts must equal the DetectedBy
// histogram.
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
	dr, err := eng.RunDetail(context.Background(), faults, PackPatternSet(len(c.PIs), pats))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(pats))
	for _, p := range dr.Credits(nil, false) {
		if p >= 0 {
			got[p]++
		}
	}
	for p := range pats {
		if got[p] != hist[p] {
			t.Fatalf("pattern %d: credit %d, want %d", p, got[p], hist[p])
		}
	}
}

// The reverse-order compaction theorem: the patterns credited by
// reverse-order Credits, kept in original order, catch exactly the
// faults the full set catches — verified by a fresh Simulate over the
// kept set.
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
		dr, err := eng.RunDetail(context.Background(), faults, PackPatternSet(len(c.PIs), pats))
		if err != nil {
			t.Fatal(err)
		}
		keep := creditMask(dr.Credits(nil, true), len(pats))
		var kept [][]bool
		for p := range pats {
			if keep[p/64]>>uint(p%64)&1 == 1 {
				kept = append(kept, pats[p])
			}
		}
		if len(kept) >= len(pats) {
			t.Fatalf("%s: reverse credits kept all %d patterns", c.Name, len(pats))
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

// Credits is pure: repeated calls, with or without a keep mask, return
// the same vector and leave the mask alone, and a session block graded
// on the same engine in between disturbs neither the matrix nor the
// credits.
func TestSessionResetReplay(t *testing.T) {
	c := circuits.RippleAdder(6)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 128, 3)
	packed := PackPatternSet(len(c.PIs), pats)
	eng := NewEngine(c, Options{Workers: 2, Metrics: telemetry.NewRegistry()})
	dr, err := eng.RunDetail(context.Background(), faults, packed)
	if err != nil {
		t.Fatal(err)
	}
	first := dr.Credits(nil, true)
	keep := creditMask(first, len(pats))
	keepCopy := append([]uint64(nil), keep...)
	forward := dr.Credits(keep, false)
	// Grade a forward block through a session on the same engine: the
	// pooled simulators are shared, the matrix must not be.
	eng.NewSession(faults).ApplyBlock(pats[:64], make([]bool, len(faults)))
	if again := dr.Credits(nil, true); !reflect.DeepEqual(first, again) {
		t.Fatal("reverse credits changed between calls")
	}
	if again := dr.Credits(keep, false); !reflect.DeepEqual(forward, again) {
		t.Fatal("kept-column credits changed between calls")
	}
	if !reflect.DeepEqual(keep, keepCopy) {
		t.Fatal("Credits modified its keep mask")
	}
	dr2, err := eng.RunDetail(context.Background(), faults, packed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dr.Detect, dr2.Detect) {
		t.Fatal("a session block on the engine changed a later detail grade")
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
		dr, err := eng.RunDetail(context.Background(), faults, packed)
		if err != nil {
			t.Fatal(err)
		}
		credits := dr.Credits(nil, true)
		if base == nil {
			base = credits
			continue
		}
		for fi := range base {
			if credits[fi] != base[fi] {
				t.Fatalf("workers=%d fault %d: credit %d, want %d", w, fi, credits[fi], base[fi])
			}
		}
	}
}

func TestSessionReplayCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := Universe(c)
	packed := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), 128, 2))
	eng := NewEngine(c, Options{Metrics: telemetry.NewRegistry()})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if dr, err := eng.RunDetail(ctx, faults, packed); err == nil || dr != nil {
		t.Fatalf("want cancellation error, got rows=%v err=%v", dr != nil, err)
	}
}
