package fuzzdiff

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/fault"
	"dft/internal/logic"
)

// CheckCompaction cross-checks the compaction engine against the
// baseline grading oracle on three axes:
//
//   - reverse replay: the kept subset must detect exactly the faults
//     the full set detects (the reverse-order theorem), pinned by an
//     independent baseline-cell grade of both sets;
//   - worker invariance: sharded replay must keep byte-identical
//     pattern sets at every worker count;
//   - full mode on cubes: after X-masking a third of the bits, the set
//     cover's kept set must detect, fault by fault, exactly what a
//     baseline-cell grade of the filled cubes detects, its stats must
//     match that grade, its patterns and cubes must be byte-identical
//     at 1 and 4 workers, and it must keep no more patterns than
//     reverse-only compaction of the same cubes under the same seed.
//
// A nil result means compaction and the simulation oracles agree.
func CheckCompaction(ctx context.Context, c *logic.Circuit, faults []fault.Fault, pats [][]bool, seed int64) (*Divergence, error) {
	if len(faults) == 0 || len(pats) == 0 {
		return nil, nil
	}
	view := atpg.PrimaryView(c)
	base := Baseline()
	want, err := runConfig(ctx, c, faults, pats, base)
	if err != nil {
		return nil, err
	}

	opt := compact.Options{Mode: compact.ModeReverse, Workers: 1, Seed: seed}
	kept, st, err := compact.Patterns(ctx, c, view, faults, pats, opt)
	if err != nil {
		return nil, err
	}
	if len(kept) > len(pats) || st.PatternsOut != len(kept) {
		return compactDivergence(c, seed, pats,
			fmt.Sprintf("reverse replay grew the set: %d -> %d (stats say %d)", len(pats), len(kept), st.PatternsOut)), nil
	}
	opt.Workers = 4
	kept4, _, err := compact.Patterns(ctx, c, view, faults, pats, opt)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(kept, kept4) {
		return compactDivergence(c, seed, pats,
			fmt.Sprintf("reverse replay is worker-dependent: %d patterns at workers=1, %d at workers=4", len(kept), len(kept4))), nil
	}
	got, err := runConfig(ctx, c, faults, kept, base)
	if err != nil {
		return nil, err
	}
	for i := range faults {
		if want.Detected[i] != got.Detected[i] {
			return compactDivergence(c, seed, pats,
				fmt.Sprintf("fault %s: detected=%v on the full set, %v on the reverse-compacted set",
					faults[i].Name(c), want.Detected[i], got.Detected[i])), nil
		}
	}

	// Full: degrade the patterns into cubes by forcing ~1/3 of the
	// bits to X, then run fill, replay and set cover.
	rng := rand.New(rand.NewSource(seed ^ 0x9E3779B9))
	cubes := make([]atpg.Test, len(pats))
	for i, p := range pats {
		vals := make([]logic.V, len(p))
		for j, b := range p {
			switch {
			case rng.Intn(3) == 0:
				vals[j] = logic.X
			case b:
				vals[j] = logic.One
			default:
				vals[j] = logic.Zero
			}
		}
		cubes[i] = atpg.Test{Values: vals}
	}
	// ModeOff returns the cubes filled from the seed and nothing more.
	fopt := compact.Options{Mode: compact.ModeOff, Seed: seed}
	filled, _, _, err := compact.Tests(ctx, c, view, faults, cubes, fopt)
	if err != nil {
		return nil, err
	}
	wantF, err := runConfig(ctx, c, faults, filled, base)
	if err != nil {
		return nil, err
	}
	fopt.Mode, fopt.Workers = compact.ModeFull, 1
	keptF, keptCubes, stF, err := compact.Tests(ctx, c, view, faults, cubes, fopt)
	if err != nil {
		return nil, err
	}
	gotF, err := runConfig(ctx, c, faults, keptF, base)
	if err != nil {
		return nil, err
	}
	for i := range faults {
		if wantF.Detected[i] != gotF.Detected[i] {
			return compactDivergence(c, seed, keptF,
				fmt.Sprintf("fault %s: detected=%v on the filled cubes, %v on the full-compacted set",
					faults[i].Name(c), wantF.Detected[i], gotF.Detected[i])), nil
		}
	}
	if stF.DetectedIn != wantF.NumCaught || stF.DetectedOut != gotF.NumCaught {
		return compactDivergence(c, seed, keptF,
			fmt.Sprintf("full stats claim %d -> %d detected, baseline grades say %d -> %d",
				stF.DetectedIn, stF.DetectedOut, wantF.NumCaught, gotF.NumCaught)), nil
	}
	fopt.Workers = 4
	keptF4, keptCubes4, _, err := compact.Tests(ctx, c, view, faults, cubes, fopt)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(keptF, keptF4) || !reflect.DeepEqual(keptCubes, keptCubes4) {
		return compactDivergence(c, seed, keptF,
			fmt.Sprintf("full compaction is worker-dependent: %d patterns at workers=1, %d at workers=4", len(keptF), len(keptF4))), nil
	}
	fopt.Mode = compact.ModeReverse
	keptR, _, _, err := compact.Tests(ctx, c, view, faults, cubes, fopt)
	if err != nil {
		return nil, err
	}
	if len(keptF) > len(keptR) {
		return compactDivergence(c, seed, keptF,
			fmt.Sprintf("full compaction kept %d patterns, reverse kept %d", len(keptF), len(keptR))), nil
	}
	return nil, nil
}

// compactDivergence packages a compact-kind finding. The pattern set is
// carried whole: compaction defects are properties of the set, so there
// is no single-pattern minimization that preserves them.
func compactDivergence(c *logic.Circuit, seed int64, pats [][]bool, detail string) *Divergence {
	return &Divergence{
		Kind:     "compact",
		Seed:     seed,
		Circuit:  c,
		Detail:   detail,
		Patterns: pats,
	}
}
