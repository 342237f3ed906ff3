package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dft/internal/logic"
)

func mustParse(t *testing.T, name, src string) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseBenchString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

// c17Ref computes c17's outputs directly from its defining equations.
func c17Ref(g1, g2, g3, g6, g7 bool) (bool, bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	g10 := nand(g1, g3)
	g11 := nand(g3, g6)
	g16 := nand(g2, g11)
	g19 := nand(g11, g7)
	return nand(g10, g16), nand(g16, g19)
}

func TestEvalMatchesReference(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	for p := 0; p < 32; p++ {
		in := []bool{p&1 != 0, p&2 != 0, p&4 != 0, p&8 != 0, p&16 != 0}
		vals := Eval(c, in, nil)
		out := Outputs(c, vals)
		w22, w23 := c17Ref(in[0], in[1], in[2], in[3], in[4])
		if out[0] != w22 || out[1] != w23 {
			t.Fatalf("pattern %05b: got (%v,%v), want (%v,%v)", p, out[0], out[1], w22, w23)
		}
	}
}

// TestWordSimMatchesScalar is the core consistency property between the
// bit-parallel and scalar simulators.
func TestWordSimMatchesScalar(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		patterns := make([][]bool, 64)
		for k := range patterns {
			p := make([]bool, len(c.PIs))
			for i := range p {
				p[i] = rng.Intn(2) == 1
			}
			patterns[k] = p
		}
		words := EvalWords(c, PackPatterns(c, patterns), nil)
		for k, p := range patterns {
			vals := Eval(c, p, nil)
			for n := range vals {
				if vals[n] != (words[n]>>uint(k)&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTernaryAgreesOnKnownInputs(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	for p := 0; p < 32; p++ {
		in := []bool{p&1 != 0, p&2 != 0, p&4 != 0, p&8 != 0, p&16 != 0}
		tin := make([]logic.V, len(in))
		for i, b := range in {
			tin[i] = logic.FromBool(b)
		}
		tv := EvalTernary(c, tin, nil)
		bv := Eval(c, in, nil)
		for n := range bv {
			if tv[n] != logic.FromBool(bv[n]) {
				t.Fatalf("pattern %05b net %s: ternary %v vs bool %v", p, c.NameOf(n), tv[n], bv[n])
			}
		}
	}
}

func TestTernaryXPropagation(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = OR(a, b)
`
	c := mustParse(t, "txp", src)
	vals := EvalTernary(c, []logic.V{logic.Zero, logic.X}, nil)
	y, _ := c.NetByName("y")
	z, _ := c.NetByName("z")
	if vals[y] != logic.Zero {
		t.Errorf("AND(0,X) simulated as %v", vals[y])
	}
	if vals[z] != logic.X {
		t.Errorf("OR(0,X) simulated as %v", vals[z])
	}
}

const toggleBench = `
INPUT(en)
OUTPUT(q)
q = DFF(n)
n = XOR(en, q)
`

func TestPackPatternsBounds(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	defer func() {
		if recover() == nil {
			t.Fatal("PackPatterns accepted 65 patterns")
		}
	}()
	PackPatterns(c, make([][]bool, 65))
}

func BenchmarkEvalScalarC17(b *testing.B) {
	c, _ := logic.ParseBenchString("c17", c17Bench)
	in := []bool{true, false, true, true, false}
	vals := make([]bool, c.NumNets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalInto(c, in, nil, vals)
	}
}

func BenchmarkEvalWordsC17(b *testing.B) {
	c, _ := logic.ParseBenchString("c17", c17Bench)
	pi := make([]uint64, len(c.PIs))
	for i := range pi {
		pi[i] = 0xAAAA5555CCCC3333
	}
	vals := make(Words, c.NumNets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalWordsInto(c, pi, nil, vals)
	}
}

func TestNextStateExtraction(t *testing.T) {
	c := mustParse(t, "toggle", toggleBench)
	vals := Eval(c, []bool{true}, []bool{false})
	ns := NextState(c, vals)
	if len(ns) != 1 || ns[0] != true { // XOR(en=1, q=0) = 1
		t.Fatalf("NextState = %v, want [true]", ns)
	}
}

func TestEvalPanicsOnBadWidths(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	for _, fn := range []func(){
		func() { Eval(c, []bool{true}, nil) },
		func() { Eval(c, make([]bool, 5), []bool{true}) },
		func() { EvalTernary(c, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
