package core

import (
	"testing"

	"dft/internal/circuits"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/sim"
)

// FuzzParseBench feeds arbitrary text through LoadString: every input
// must either be rejected with an error or load into a design that
// lints clean of errors and compiles and simulates one 64-pattern
// block without panicking. The seeds are every library circuit
// rendered as .bench and three malformed shapes: an input redriven by
// a flip-flop, an input redriven by a gate, and a two-input NOT.
func FuzzParseBench(f *testing.F) {
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(logic.BenchString(c))
	}
	f.Add("INPUT(a)\na = DFF(a)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\na = NOT(b)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := LoadString("fuzz", src)
		if err != nil {
			return
		}
		c := d.Circuit
		if errs := fuzzdiff.Errors(fuzzdiff.Lint(c)); len(errs) != 0 {
			t.Fatalf("loaded netlist lints with errors: %v", errs)
		}
		vals := make([]uint64, c.NumNets())
		for i, pi := range c.PIs {
			vals[pi] = 0x5555555555555555 << uint(i%2)
		}
		sim.Compile(c).Exec(vals)
	})
}
