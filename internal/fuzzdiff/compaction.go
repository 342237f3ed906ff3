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
//   - static merging: after X-masking a third of the bits, the merged,
//     filled and repaired set must never lose coverage versus its own
//     filled baseline, its reported stats must match a baseline-cell
//     grade of the output, and the whole pipeline must be a pure
//     function of the seed.
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

	// Static: degrade the patterns into cubes by forcing ~1/3 of the
	// bits to X, then run the merge+fill+repair pipeline.
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
	sopt := compact.Options{Mode: compact.ModeFull, Workers: 1, Seed: seed}
	keptS, _, stS, err := compact.Tests(ctx, c, view, faults, cubes, sopt)
	if err != nil {
		return nil, err
	}
	if stS.DetectedOut < stS.DetectedIn {
		return compactDivergence(c, seed, keptS,
			fmt.Sprintf("static merge lost coverage: detected %d -> %d", stS.DetectedIn, stS.DetectedOut)), nil
	}
	gotS, err := runConfig(ctx, c, faults, keptS, base)
	if err != nil {
		return nil, err
	}
	if gotS.NumCaught != stS.DetectedOut {
		return compactDivergence(c, seed, keptS,
			fmt.Sprintf("static stats claim %d detected, baseline grade of the output says %d",
				stS.DetectedOut, gotS.NumCaught)), nil
	}
	keptS2, _, _, err := compact.Tests(ctx, c, view, faults, cubes, sopt)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(keptS, keptS2) {
		return compactDivergence(c, seed, keptS,
			"static compaction is not a pure function of the seed: two identical runs disagree"), nil
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
