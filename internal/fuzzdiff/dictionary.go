package fuzzdiff

import (
	"context"
	"fmt"

	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/logic"
)

// CheckDictionary cross-checks the fault-dictionary build against the
// baseline grading oracle on three axes:
//
//   - detect-bit agreement: a fault's dictionary row must be nonzero
//     exactly when the independent baseline grade detects it, and the
//     row's first set bit must be the baseline's first-detecting
//     pattern (first detection is drop-invariant, so the two engines
//     must agree bit-for-bit on it);
//   - worker/backend invariance: the parallel and CPT detail
//     schedulers at several worker counts must reproduce the
//     single-worker parallel rows byte-identically;
//   - closed-loop diagnosis: observing a detected fault's machine
//     through the dictionary must put that fault in its own exact
//     lookup class and rank it at Hamming distance 0.
//
// A nil result means the dictionary and the grading oracle agree.
func CheckDictionary(ctx context.Context, c *logic.Circuit, faults []fault.Fault, pats [][]bool, seed int64) (*Divergence, error) {
	if len(faults) == 0 || len(pats) == 0 {
		return nil, nil
	}
	want, err := runConfig(ctx, c, faults, pats, Baseline())
	if err != nil {
		return nil, err
	}
	dict, err := diagnose.Build(ctx, c, faults, pats, diagnose.Options{
		Backend: fault.BackendParallel, Workers: 1,
	})
	if err != nil {
		return nil, err
	}

	firstBit := func(row []uint64) int {
		for w, word := range row {
			if word != 0 {
				for b := 0; b < 64; b++ {
					if word>>uint(b)&1 == 1 {
						return w*64 + b
					}
				}
			}
		}
		return -1
	}
	for i := range faults {
		first := firstBit(dict.Row(i))
		if (first >= 0) != want.Detected[i] {
			return dictDivergence(c, seed, pats,
				fmt.Sprintf("fault %s: dictionary row nonzero=%v, baseline detected=%v",
					faults[i].Name(c), first >= 0, want.Detected[i])), nil
		}
		if first >= 0 && first != want.DetectedBy[i] {
			return dictDivergence(c, seed, pats,
				fmt.Sprintf("fault %s: dictionary first detect at pattern %d, baseline at %d",
					faults[i].Name(c), first, want.DetectedBy[i])), nil
		}
	}

	for _, cfg := range []struct {
		be fault.Backend
		w  int
	}{
		{fault.BackendParallel, 4},
		{fault.BackendCPT, 4},
	} {
		other, err := diagnose.Build(ctx, c, faults, pats, diagnose.Options{Backend: cfg.be, Workers: cfg.w})
		if err != nil {
			return nil, err
		}
		for i := range faults {
			a, b := dict.Row(i), other.Row(i)
			for w := range a {
				if a[w] != b[w] {
					return dictDivergence(c, seed, pats,
						fmt.Sprintf("fault %s word %d: %v workers=%d row %016x, reference %016x",
							faults[i].Name(c), w, cfg.be, cfg.w, b[w], a[w])), nil
				}
			}
		}
	}

	for i := range faults {
		if !want.Detected[i] {
			continue
		}
		sig, err := dict.ObserveMachine(faults[i])
		if err != nil {
			return nil, err
		}
		hit := false
		for _, fi := range dict.Lookup(sig) {
			if fi == i {
				hit = true
			}
		}
		if !hit {
			return dictDivergence(c, seed, pats,
				fmt.Sprintf("fault %s: own observed signature not in its exact lookup class", faults[i].Name(c))), nil
		}
		if r := dict.Rank(sig, 1); len(r) == 0 || r[0].Distance != 0 {
			return dictDivergence(c, seed, pats,
				fmt.Sprintf("fault %s: best ranked candidate at distance %d, want 0", faults[i].Name(c), r[0].Distance)), nil
		}
		break // one closed loop per round keeps the check cheap
	}
	return nil, nil
}

// dictDivergence packages a dict-kind finding; like compaction, the
// pattern set is carried whole because rows are set-level properties.
func dictDivergence(c *logic.Circuit, seed int64, pats [][]bool, detail string) *Divergence {
	return &Divergence{
		Kind:     "dict",
		Seed:     seed,
		Circuit:  c,
		Detail:   detail,
		Patterns: pats,
	}
}
