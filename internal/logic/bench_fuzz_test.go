package logic_test

import (
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
)

// FuzzParseBenchReference runs the one-pass reader and the reference
// line scanner on the same text: both must fail with the same error
// text, or both must build the same circuit — gate order, names,
// types, fanin, PIs, POs, the name index and the finalized levels and
// order. The seeds are every library circuit rendered as .bench, one
// document per rejection branch, and documents that lean on Unicode
// case mapping, CRLF line ends, comments and forward references.
func FuzzParseBenchReference(f *testing.F) {
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(logic.BenchString(c))
	}
	for _, src := range []string{
		"INPUT a\n",
		"INPUT( )\n",
		"INPUT(a)\nOUTPUT)a(\n",
		"INPUT(a)\nINPUT(a)\n",
		"INPUT(a)\nINPUT(b)\na = NOT(b)\nOUTPUT(a)\n",
		"INPUT(b)\na = NOT(b)\nINPUT(a)\nOUTPUT(a)\n",
		"INPUT(a)\ngarbage line\n",
		"INPUT(a)\ny = AND a, b\n",
		"INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n",
		"INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)\n",
		"INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)\n",
		"INPUT(a)\ny = AND()\nOUTPUT(y)\n",
		"INPUT(a)\ny = VDD(a)\nOUTPUT(y)\n",
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n",
		"INPUT(a)\nOUTPUT(q)\nq = DFF(d)\n",
		"INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nOUTPUT(q)\n",
		"INPUT(a)\nOUTPUT(n1)\n = NOT(a)\nn1 = BUF(a)\n",
		"ınput(a)\r\noutput(y) # out\r\ny = conſt0()\r\nz = Nand(y, a, q)\r\nq = dff(z)\r\n",
		"INPUT(d)\nOUTPUT(q2)\nq1 = DFF(d)\nq2 = DFF(q1)\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := logic.ParseBenchString("fuzz", src)
		want, wantErr := logic.ParseBenchRef("fuzz", strings.NewReader(src))
		switch {
		case gotErr != nil || wantErr != nil:
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
		default:
			if d := logic.DiffParse(got, want); d != "" {
				t.Fatal(d)
			}
		}
	})
}
