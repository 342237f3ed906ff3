package fault

import (
	"context"
	"fmt"
	"testing"

	"dft/internal/circuits"
)

// TestKernelInvariance is the cross-kernel acceptance criterion: every
// compiled-kernel backend produces byte-identical Results to the
// serial backend, whose good machine runs on the interpreted kernel,
// at every worker count, dropping or not.
func TestKernelInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 200, 23)
	for _, drop := range []DropMode{DropOn, DropOff} {
		base, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendSerial, Drop: drop})
		if err != nil {
			t.Fatal(err)
		}
		for _, be := range []Backend{BackendParallel, BackendCPT} {
			for _, w := range []int{1, 2, 4, 8} {
				got, err := Simulate(context.Background(), c, faults, pats,
					Options{Backend: be, Workers: w, Drop: drop})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("backend=%v workers=%d drop=%v", be, w, drop), got, base)
			}
		}
	}
}

// TestRunPackedMatchesRun checks that a pre-packed pattern set grades
// identically to the scalar set it encodes, on every backend.
func TestRunPackedMatchesRun(t *testing.T) {
	c := circuits.ALU74181()
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 150, 5)
	packed := PackPatternSet(len(c.PIs), pats)
	if packed.NumPatterns() != len(pats) {
		t.Fatalf("packed %d patterns, want %d", packed.NumPatterns(), len(pats))
	}
	for _, be := range []Backend{BackendSerial, BackendParallel, BackendCPT} {
		want, err := Simulate(context.Background(), c, faults, pats, Options{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(c, Options{Backend: be}).RunPacked(context.Background(), faults, packed)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("packed backend=%v", be), got, want)
	}
}

// TestPackedPatternsRoundTrip checks At/Patterns invert Append.
func TestPackedPatternsRoundTrip(t *testing.T) {
	pats := enginePatterns(9, 130, 77)
	pp := NewPackedPatterns(9)
	for _, p := range pats {
		pp.Append(p)
	}
	if pp.NumBlocks() != 3 {
		t.Fatalf("130 patterns in %d blocks, want 3", pp.NumBlocks())
	}
	for i, p := range pats {
		got := pp.At(i)
		for j := range p {
			if got[j] != p[j] {
				t.Fatalf("pattern %d input %d: %v want %v", i, j, got[j], p[j])
			}
		}
	}
}

// TestAppendEnumMatchesScalar checks the mask-synthesized enumeration
// (aligned and mid-block starts) against per-pattern appends.
func TestAppendEnumMatchesScalar(t *testing.T) {
	free := []int{2, 0, 5, 3, 1, 6, 4} // scrambled positions, n=7 crosses block boundary
	fixed := []int{7}
	for _, prefix := range []int{0, 3} { // 3 ≠ 0 mod 64 forces the unaligned path
		fast := NewPackedPatterns(8)
		slow := NewPackedPatterns(8)
		pad := make([]bool, 8)
		for i := 0; i < prefix; i++ {
			fast.Append(pad)
			slow.Append(pad)
		}
		fast.AppendEnum(free, fixed)
		p := make([]bool, 8)
		for _, pos := range fixed {
			p[pos] = true
		}
		for x := 0; x < 1<<uint(len(free)); x++ {
			for b, pos := range free {
				p[pos] = x>>uint(b)&1 == 1
			}
			slow.Append(p)
		}
		if fast.NumPatterns() != slow.NumPatterns() {
			t.Fatalf("prefix=%d: %d patterns, want %d", prefix, fast.NumPatterns(), slow.NumPatterns())
		}
		for i := 0; i < fast.NumPatterns(); i++ {
			fp, sp := fast.At(i), slow.At(i)
			for j := range fp {
				if fp[j] != sp[j] {
					t.Fatalf("prefix=%d pattern %d input %d: %v want %v", prefix, i, j, fp[j], sp[j])
				}
			}
		}
	}
}

// TestSessionKernelInvariance re-checks the ATPG grading path: a
// session's incremental blocks, on the compiled kernel, drop exactly
// the faults the interpreted serial backend detects, and each block's
// useful mask marks exactly the serial first-detecting patterns.
func TestSessionKernelInvariance(t *testing.T) {
	c := circuits.ALU74181()
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 192, 9)
	want, err := Simulate(context.Background(), c, faults, pats, Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	wantUseful := make([]uint64, len(pats)/64)
	for _, p := range want.DetectedBy {
		if p >= 0 {
			wantUseful[p/64] |= 1 << uint(p%64)
		}
	}
	s := NewEngine(c, Options{Workers: 4, Drop: DropOn}).NewSession(faults)
	detected := make([]bool, len(faults))
	for base := 0; base < len(pats); base += 64 {
		if got := s.ApplyBlock(pats[base:base+64], detected); got != wantUseful[base/64] {
			t.Fatalf("block %d useful mask: %#x, serial %#x", base/64, got, wantUseful[base/64])
		}
	}
	if s.Caught() != want.NumCaught {
		t.Fatalf("caught %d, serial %d", s.Caught(), want.NumCaught)
	}
	for i := range detected {
		if detected[i] != want.Detected[i] {
			t.Fatalf("fault %d: session %v, serial %v", i, detected[i], want.Detected[i])
		}
	}
}
