// Diagnosis walks the fault-location side of the paper: build a
// fault dictionary for a test set, observe a failing device at the
// pins, narrow it to a candidate class, then use a distinguishing
// pattern and — when the pins run out of resolution — an internal
// probe, the reason bed-of-nails and signature analyzers exist.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/diagnose"
	"dft/internal/fault"
)

func main() {
	c := circuits.RippleAdder(4)
	u := fault.Universe(c)

	// A compacted deterministic test set.
	cl := fault.Collapse(c)
	gen := atpg.Generate(c, atpg.PrimaryView(c), cl.Reps,
		atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 64, RandomSeed: 2})
	patterns, _, err := compact.Patterns(context.Background(), c, atpg.PrimaryView(c), cl.Reps,
		gen.Patterns, compact.Options{Mode: compact.ModeReverse})
	if err != nil {
		panic(err)
	}
	fmt.Printf("test set: %d patterns, %.0f%% stuck-at coverage\n",
		len(patterns), gen.RawCover*100)

	dict, err := diagnose.Build(context.Background(), c, u, patterns, diagnose.Options{})
	if err != nil {
		panic(err)
	}
	r := dict.Resolution()
	fmt.Printf("dictionary: %d classes over %d faults (mean %.2f, max %d), %d bytes\n\n",
		r.Classes, len(u), r.MeanSize, r.MaxSize, dict.CompactBytes())

	// A "returned board" with an unknown defect.
	rng := rand.New(rand.NewSource(7))
	truth := u[rng.Intn(len(u))]
	fmt.Printf("injected (hidden from the tester): %s\n", truth.Name(c))

	candidates := dict.Diagnose(truth)
	fmt.Printf("pin-level diagnosis: %d candidate(s):\n", len(candidates))
	for _, f := range candidates {
		fmt.Printf("  %s\n", f.Name(c))
	}

	// If more than one candidate remains, the pins cannot separate
	// them under this test set: check whether ANY pattern could.
	if len(candidates) > 1 {
		idx := func(f fault.Fault) int {
			for i, g := range u {
				if g == f {
					return i
				}
			}
			return -1
		}
		p := dict.DistinguishingPattern(idx(candidates[0]), idx(candidates[1]))
		if p < 0 {
			fmt.Println("no pattern in the set distinguishes them — equivalence at the pins;")
			fmt.Println("resolution beyond this point needs internal probing (bed-of-nails,")
			fmt.Println("signature analysis), exactly the paper's §III toolbox.")
		} else {
			fmt.Printf("pattern %d distinguishes the leading candidates\n", p)
		}
	} else {
		fmt.Println("unique diagnosis at the pins.")
	}
}
