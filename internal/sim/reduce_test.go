package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/sim"
)

// checkReduced verifies the contract of sim.Compile's lowering for one
// circuit: every net is materialized as one instruction, and the
// program's 64-way valuation equals the interpreter's on every net for
// random stimulus, with DFF outputs driven as free inputs so
// sequential behavior is covered for arbitrary state.
func checkReduced(t *testing.T, c *logic.Circuit, rng *rand.Rand) *sim.Program {
	t.Helper()
	p := sim.Compile(c)
	if got, want := p.NumInstrs(), len(c.Order); got != want {
		t.Fatalf("Compile emitted %d instructions for %d ordered nets", got, want)
	}
	n := c.NumNets()
	ref := make(sim.Words, n)
	got := make(sim.Words, n)
	for trial := 0; trial < 4; trial++ {
		pi := make([]uint64, len(c.PIs))
		state := make([]uint64, len(c.DFFs))
		for i := range pi {
			pi[i] = rng.Uint64()
		}
		for i := range state {
			state[i] = rng.Uint64()
		}
		sim.EvalWordsInterpInto(c, pi, state, ref, nil)
		p.EvalWordsInto(pi, state, got)
		for i := 0; i < n; i++ {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: net %d (%s) reduced %x, interp %x",
					trial, i, c.NameOf(i), got[i], ref[i])
			}
		}
	}
	return p
}

// TestReduceBuiltins runs the lowering check over the whole builtin
// circuit library at its default sizes.
func TestReduceBuiltins(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range circuits.BuiltinNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := circuits.Builtin(name, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkReduced(t, c, rng)
		})
	}
}

// TestReduceFuzzCircuits runs the check over generator output across a
// spread of shapes: const-heavy, tie-heavy, deep, wide, sequential.
func TestReduceFuzzCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := int64(0); seed < 60; seed++ {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkReduced(t, c, rng)
		})
	}
	// Force the corners the shaped seeds may under-sample.
	corners := []fuzzdiff.Config{
		{Inputs: 4, Gates: 80, ConstProb: 0.45, TieProb: 0.30},
		{Inputs: 3, Gates: 60, MaxFanin: 2, GateMix: []logic.GateType{logic.Xor, logic.Xnor}, TieProb: 0.4},
		{Inputs: 6, Gates: 120, DFFs: 6, ConstProb: 0.25},
		{Inputs: 2, Gates: 40, GateMix: []logic.GateType{logic.Buf, logic.Not}},
		{Inputs: 10, Gates: 200, DepthBias: 0.95},
	}
	for i, cfg := range corners {
		for s := int64(0); s < 8; s++ {
			c := fuzzdiff.Generate(cfg, 1000+int64(i)*8+s)
			t.Run(fmt.Sprintf("corner%d_seed%d", i, s), func(t *testing.T) {
				checkReduced(t, c, rng)
			})
		}
	}
}

// TestReduceActuallyReduces checks the lowering on the shapes a
// netlist-reducing compiler would rewrite: commutative twins, a
// constant feed and an AND of two copies of one value. The program
// evaluates each as written and must still match the interpreter.
func TestReduceActuallyReduces(t *testing.T) {
	b := logic.New("reducible")
	a := b.AddInput("a")
	x := b.AddInput("x")
	y := b.AddInput("y")
	one := b.AddGate(logic.Const1, "one")
	// Two structurally identical NANDs (commutative operands).
	n1 := b.AddGate(logic.Nand, "n1", a, x)
	n2 := b.AddGate(logic.Nand, "n2", x, a)
	// A constant feed.
	g3 := b.AddGate(logic.And, "g3", n1, one)
	g4 := b.AddGate(logic.Buf, "g4", g3)
	// AND of two nets that both carry n1's value.
	g5 := b.AddGate(logic.And, "g5", g4, n2)
	g6 := b.AddGate(logic.Nand, "g6", g5, y)
	b.MarkOutput(g6)
	c := b.MustFinalize()

	checkReduced(t, c, rand.New(rand.NewSource(3)))
}

// TestReduceConstantCircuit checks a primary input whose only reader
// is constant: XOR(a, a) is 0, its inverter 1, and the program still
// writes every net, a included.
func TestReduceConstantCircuit(t *testing.T) {
	b := logic.New("allconst")
	a := b.AddInput("a")
	// XOR(a, a) == 0: a's single reader is a constant.
	x := b.AddGate(logic.Xor, "x", a, a)
	y := b.AddGate(logic.Not, "y", x)
	b.MarkOutput(y)
	c := b.MustFinalize()
	p := checkReduced(t, c, rand.New(rand.NewSource(5)))
	vals := make(sim.Words, c.NumNets())
	p.EvalWordsInto([]uint64{0x5555}, nil, vals)
	if vals[y] != ^uint64(0) || vals[a] != 0x5555 {
		t.Errorf("y = %x (want all ones), a = %x (want 5555)", vals[y], vals[a])
	}
}
