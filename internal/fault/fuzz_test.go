// Fuzz targets live in the external test package so they can use
// fuzzdiff, which imports fault.
package fault_test

import (
	"context"
	"testing"

	"dft/internal/fault"
	"dft/internal/fuzzdiff"
)

// FuzzBackendEquivalence requires every fault-simulation configuration
// (serial, parallel and cpt backends × workers × drop) to report
// detection outcomes identical to the serial baseline, whose good
// machine runs on the interpreted kernel, on a seed-generated
// circuit's collapsed fault list.
//
// Run: go test -fuzz=FuzzBackendEquivalence -fuzztime=10s ./internal/fault
func FuzzBackendEquivalence(f *testing.F) {
	// 116 generates a 5-DFF sequential netlist and 142 a large
	// tie-heavy combinational one — the shapes that stress the cpt
	// observability chain and pattern-axis worker cells.
	for _, seed := range []int64{1, 2, 5, 11, 42, -8, 116, 142} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		if ds := fuzzdiff.Lint(c); fuzzdiff.HasErrors(ds) {
			t.Fatalf("seed %d: generator emitted invalid netlist: %v", seed, ds)
		}
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := fuzzdiff.RandomPatterns(len(c.PIs), 32, seed^0x6A09E667)
		d, err := fuzzdiff.CheckBackends(context.Background(), c, faults, pats, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("backend divergence:\n%s", d.Repro())
		}
	})
}
