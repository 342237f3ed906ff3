// Fuzz targets live in the external test package so they can use
// fuzzdiff, which imports sim.
package sim_test

import (
	"testing"

	"dft/internal/fuzzdiff"
)

// FuzzKernelEquivalence requires the compiled kernel at every
// execution width (scalar, 64-way word) to agree with the
// interpreted reference on a seed-generated circuit.
//
// Run: go test -fuzz=FuzzKernelEquivalence -fuzztime=10s ./internal/sim
func FuzzKernelEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 2, 7, 42, 1234, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		if ds := fuzzdiff.Lint(c); fuzzdiff.HasErrors(ds) {
			t.Fatalf("seed %d: generator emitted invalid netlist: %v", seed, ds)
		}
		if d := fuzzdiff.CheckKernels(c, seed, 6); d != nil {
			d.Seed = seed
			t.Fatalf("kernel divergence:\n%s", d.Repro())
		}
	})
}
