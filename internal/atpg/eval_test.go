package atpg

import (
	"fmt"
	"testing"

	"dft/internal/logic"
)

var fiveValues = []logic.V{logic.Zero, logic.One, logic.X, logic.D, logic.Dbar}

// evalGate builds a circuit whose only gate is typ over k fresh inputs,
// and a simulator over it targeting sites (which name the gate's pins).
func evalGate(typ logic.GateType, k int, sites MultiFault) (*sim5, int) {
	c := logic.New("gate")
	in := make([]int, k)
	for i := range in {
		in[i] = c.AddInput(fmt.Sprintf("I%d", i))
	}
	g := c.AddGate(typ, "G", in...)
	c.MarkOutput(g)
	c.MustFinalize()
	for i := range sites {
		sites[i].Gate = g
	}
	return newSim5(c, PrimaryView(c), sites), g
}

// sequences calls f with every sequence of length k over the five
// values, reusing one slice.
func sequences(k int, f func([]logic.V)) {
	seq := make([]logic.V, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			f(seq)
			return
		}
		for _, v := range fiveValues {
			seq[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// load writes seq onto the gate's fanin nets, which are its inputs.
func load(s *sim5, g int, seq []logic.V) {
	for i, src := range s.c.Gates[g].Fanin {
		s.vals[src] = seq[i]
	}
}

// TestEvalDMatchesGateEval checks PODEM's table fold against the
// pairwise GateType.Eval for every combinational gate type and every
// fanin sequence of length 1–5 over the five values (BUF and NOT
// take length 1 only, the constants length 0), and the reported
// fault effect against the fanins' error values. PodemReference runs
// the same evaluator, so this is the test that catches it being wrong.
func TestEvalDMatchesGateEval(t *testing.T) {
	for _, typ := range []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor, logic.Const0, logic.Const1} {
		lo, hi := 1, 5
		if m := typ.MaxFanin(); m >= 0 {
			lo, hi = m, m
		}
		for k := lo; k <= hi; k++ {
			s, g := evalGate(typ, k, nil)
			sequences(k, func(seq []logic.V) {
				wantD := false
				for _, v := range seq {
					wantD = wantD || v.IsError()
				}
				load(s, g, seq)
				got, hasD := s.evalD(int32(g))
				if want := typ.Eval(seq); got != want || hasD != wantD {
					t.Fatalf("%v%v: evalD = %v, %v; want %v, %v", typ, seq, got, hasD, want, wantD)
				}
			})
		}
	}
}

// TestEvalDFoldOrder pins the cases where the five-valued fold is not
// associative: the operands must be folded in fanin order, left to
// right, so regrouping them (or projecting back to X only once per
// gate) changes the value.
func TestEvalDFoldOrder(t *testing.T) {
	X, D, Db := logic.X, logic.D, logic.Dbar
	for _, tc := range []struct {
		typ  logic.GateType
		seq  []logic.V
		want logic.V
	}{
		{logic.And, []logic.V{X, D, Db}, X},
		{logic.And, []logic.V{D, Db, X}, logic.Zero},
		{logic.Nand, []logic.V{X, D, Db}, X},
		{logic.Nand, []logic.V{D, Db, X}, logic.One},
		{logic.Or, []logic.V{X, D, Db}, X},
		{logic.Or, []logic.V{D, Db, X}, logic.One},
		{logic.Nor, []logic.V{X, D, Db}, X},
		{logic.Nor, []logic.V{D, Db, X}, logic.Zero},
	} {
		s, g := evalGate(tc.typ, len(tc.seq), nil)
		load(s, g, tc.seq)
		if got, _ := s.evalD(int32(g)); got != tc.want {
			t.Errorf("%v%v = %v, want %v", tc.typ, tc.seq, got, tc.want)
		}
	}
}

// TestEvalDBranchSites checks the faulty-gate path against inject on a
// copy of the operands followed by GateType.Eval, for every gate type
// with one branch site, and with two sites on different pins or on the
// same pin, over every fanin sequence of length 1–3. A fault effect
// reaches the gate when a fanin carries an error value or a site is
// activated, judged on the operand as the sites before it left it.
func TestEvalDBranchSites(t *testing.T) {
	for _, typ := range []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Nand,
		logic.Or, logic.Nor, logic.Xor, logic.Xnor} {
		hi := 3
		if typ.MaxFanin() == 1 {
			hi = 1
		}
		for k := 1; k <= hi; k++ {
			var siteSets []MultiFault
			for p := 0; p < k; p++ {
				for _, sa := range []logic.V{logic.Zero, logic.One} {
					siteSets = append(siteSets, MultiFault{{Pin: p, SA: sa}})
					for q := 0; q < k; q++ {
						for _, sb := range []logic.V{logic.Zero, logic.One} {
							siteSets = append(siteSets, MultiFault{{Pin: p, SA: sa}, {Pin: q, SA: sb}})
						}
					}
				}
			}
			in := make([]logic.V, k)
			for _, sites := range siteSets {
				s, g := evalGate(typ, k, sites)
				sequences(k, func(seq []logic.V) {
					copy(in, seq)
					wantD := false
					for _, v := range seq {
						wantD = wantD || v.IsError()
					}
					for _, f := range sites {
						if good := in[f.Pin].Good(); good != logic.X && good != f.SA {
							wantD = true
						}
						in[f.Pin] = inject(in[f.Pin], f.SA)
					}
					load(s, g, seq)
					got, hasD := s.evalD(int32(g))
					if want := typ.Eval(in); got != want || hasD != wantD {
						t.Fatalf("%v%v sites %v: evalD = %v, %v; want %v, %v",
							typ, seq, sites, got, hasD, want, wantD)
					}
				})
			}
		}
	}
}
