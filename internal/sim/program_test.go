package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/logic"
)

// randomCircuit builds a random netlist exercising every compilable
// gate type — including Buf/Not chains, constants feeding logic (so
// folding triggers), deliberately tied fanins (idempotence and XOR
// cancellation), and optionally DFFs — with random fanin and fanout.
func randomCircuit(rng *rand.Rand, nIn, nGates, nDFF int) *logic.Circuit {
	c := logic.New(fmt.Sprintf("prop_%d_%d_%d", nIn, nGates, nDFF))
	nets := make([]int, 0, nIn+nGates+nDFF+2)
	for i := 0; i < nIn; i++ {
		nets = append(nets, c.AddInput(fmt.Sprintf("I%d", i)))
	}
	nets = append(nets, c.AddGate(logic.Const0, "K0"))
	nets = append(nets, c.AddGate(logic.Const1, "K1"))
	types := []logic.GateType{
		logic.Buf, logic.Not,
		logic.And, logic.Nand, logic.Or, logic.Nor,
		logic.Xor, logic.Xnor,
	}
	for i := 0; i < nDFF; i++ {
		// D input picked from what exists so far; the DFF output is a
		// source for downstream logic.
		d := nets[rng.Intn(len(nets))]
		nets = append(nets, c.AddDFF(fmt.Sprintf("FF%d", i), d))
	}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		var fanin []int
		if t == logic.Buf || t == logic.Not {
			fanin = []int{nets[rng.Intn(len(nets))]}
		} else {
			k := 2 + rng.Intn(4)
			for j := 0; j < k; j++ {
				// Duplicates are allowed on purpose: tied inputs must
				// fold without changing the result.
				fanin = append(fanin, nets[rng.Intn(len(nets))])
			}
		}
		nets = append(nets, c.AddGate(t, fmt.Sprintf("G%d", i), fanin...))
	}
	// A handful of outputs over the deepest nets.
	for i := 0; i < 3 && i < len(nets); i++ {
		c.MarkOutput(nets[len(nets)-1-i])
	}
	c.MustFinalize()
	return c
}

// checkKernelsAgree runs one (pi, state) vector through the four
// scalar/word paths and checks every net agrees.
func checkKernelsAgree(t *testing.T, c *logic.Circuit, p *Program, pi, state []bool) {
	t.Helper()
	n := c.NumNets()
	ref := make([]bool, n)
	EvalInterpInto(c, pi, state, ref, nil)

	got := make([]bool, n)
	p.EvalInto(pi, state, got)
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: compiled scalar net %d = %v, interp %v", c.Name, i, got[i], ref[i])
		}
	}

	// Word kernels: replicate the pattern across all 64 lanes.
	wpi := make([]uint64, len(pi))
	for i, b := range pi {
		if b {
			wpi[i] = ^uint64(0)
		}
	}
	wstate := make([]uint64, len(state))
	for i, b := range state {
		if b {
			wstate[i] = ^uint64(0)
		}
	}
	wref := make(Words, n)
	EvalWordsInterpInto(c, wpi, wstate, wref, nil)
	wgot := make(Words, n)
	p.EvalWordsInto(wpi, wstate, wgot)
	for i := 0; i < n; i++ {
		want := uint64(0)
		if ref[i] {
			want = ^uint64(0)
		}
		if wref[i] != want {
			t.Fatalf("%s: interp word net %d = %#x, scalar says %#x", c.Name, i, wref[i], want)
		}
		if wgot[i] != want {
			t.Fatalf("%s: compiled word net %d = %#x, want %#x", c.Name, i, wgot[i], want)
		}
	}
}

// TestCrossKernelRandomCircuits is the cross-kernel property test:
// on randomized circuits (all gate types, random fanin/fanout, tied
// inputs, constants, DFFs) the compiled scalar, compiled word,
// interpreted scalar and interpreted word kernels agree on every net
// for random pattern sets.
func TestCrossKernelRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		nIn := 1 + rng.Intn(8)
		nGates := 5 + rng.Intn(60)
		nDFF := rng.Intn(3)
		c := randomCircuit(rng, nIn, nGates, nDFF)
		p := Compile(c)
		if p.NumInstrs() != len(c.Order) {
			t.Fatalf("%s: %d instrs for %d ordered nets", c.Name, p.NumInstrs(), len(c.Order))
		}
		for pat := 0; pat < 8; pat++ {
			pi := make([]bool, nIn)
			for i := range pi {
				pi[i] = rng.Intn(2) == 1
			}
			state := make([]bool, len(c.DFFs))
			for i := range state {
				state[i] = rng.Intn(2) == 1
			}
			checkKernelsAgree(t, c, p, pi, state)
		}
	}
}

// TestCrossKernelExhaustive verifies kernel agreement on the complete
// 2^n input space of small random circuits.
func TestCrossKernelExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		nIn := 1 + rng.Intn(5)
		c := randomCircuit(rng, nIn, 4+rng.Intn(24), 0)
		p := Compile(c)
		pi := make([]bool, nIn)
		for x := 0; x < 1<<uint(nIn); x++ {
			for i := range pi {
				pi[i] = x>>uint(i)&1 == 1
			}
			checkKernelsAgree(t, c, p, pi, nil)
		}
	}
}

// TestCompileFoldsConstants pins down the constant-folding rules on a
// hand-built circuit: constant feeds, tied inputs and XOR pairs all
// reduce, and the folded program still writes every net correctly.
func TestCompileFoldsConstants(t *testing.T) {
	c := logic.New("fold")
	a := c.AddInput("a")
	b := c.AddInput("b")
	k0 := c.AddGate(logic.Const0, "k0")
	k1 := c.AddGate(logic.Const1, "k1")
	andK0 := c.AddGate(logic.And, "andK0", a, k0)           // -> const 0
	andK1 := c.AddGate(logic.And, "andK1", a, k1, b)        // -> a AND b
	orTied := c.AddGate(logic.Or, "orTied", a, a, a)        // -> buf a
	xorPair := c.AddGate(logic.Xor, "xorPair", a, b, a)     // -> buf b
	xorK1 := c.AddGate(logic.Xor, "xorK1", a, k1)           // -> not a
	norK1 := c.AddGate(logic.Nor, "norK1", a, k1)           // -> const 0
	nandDead := c.AddGate(logic.Nand, "nandDead", andK0, b) // andK0 is const 0 -> const 1
	c.MarkOutput(nandDead)
	c.MustFinalize()

	p := Compile(c)
	if p.Folded() == 0 {
		t.Fatalf("expected folded gates, got none")
	}
	for _, pi := range [][]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		ref := make([]bool, c.NumNets())
		EvalInterpInto(c, pi, nil, ref, nil)
		got := make([]bool, c.NumNets())
		p.EvalInto(pi, nil, got)
		for _, net := range []int{andK0, andK1, orTied, xorPair, xorK1, norK1, nandDead} {
			if got[net] != ref[net] {
				t.Fatalf("pi=%v net %s: compiled %v, interp %v", pi, c.NameOf(net), got[net], ref[net])
			}
		}
	}
}

// TestKernelDispatch checks the package entry points run the compiled
// kernel and agree with the interpreted reference through the public
// API.
func TestKernelDispatch(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	pi := []bool{true, false, true, true, false}
	interp := make([]bool, c.NumNets())
	EvalInterpInto(c, pi, nil, interp, nil)
	compiled := Eval(c, pi, nil)
	for i := range interp {
		if interp[i] != compiled[i] {
			t.Fatalf("net %d: interp %v compiled %v", i, interp[i], compiled[i])
		}
	}
}

// TestCompiledForCache checks identity caching and that the FIFO bound
// holds under a MakeTestable-style flood of throwaway circuits.
func TestCompiledForCache(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	p1 := CompiledFor(c)
	p2 := CompiledFor(c)
	if p1 != p2 {
		t.Fatalf("cache returned distinct programs for one circuit")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2*programCacheCap; i++ {
		CompiledFor(randomCircuit(rng, 2, 3, 0))
	}
	progCacheMu.Lock()
	n := len(progCacheAge)
	progCacheMu.Unlock()
	if n > programCacheCap {
		t.Fatalf("cache grew to %d entries past cap %d", n, programCacheCap)
	}
}

// TestExhaustiveBlock checks the mask-synthesized enumeration equals
// the scalar count for widths spanning the mask table boundary (6) and
// partial tail blocks.
func TestExhaustiveBlock(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 6, 7, 8} {
		free := make([]int, n)
		for i := range free {
			free[i] = i
		}
		words := make([]uint64, n)
		total := uint64(1) << uint(n)
		seen := uint64(0)
		for base := uint64(0); base < total; base += 64 {
			k := ExhaustiveBlock(words, free, base)
			for p := 0; p < k; p++ {
				x := base + uint64(p)
				for b := 0; b < n; b++ {
					got := words[b]>>uint(p)&1 == 1
					want := x>>uint(b)&1 == 1
					if got != want {
						t.Fatalf("n=%d pattern %d var %d: got %v want %v", n, x, b, got, want)
					}
				}
			}
			seen += uint64(k)
		}
		if seen != total {
			t.Fatalf("n=%d enumerated %d of %d patterns", n, seen, total)
		}
	}
}

func TestPackPatternsInto(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	rng := rand.New(rand.NewSource(11))
	pats := make([][]bool, 37)
	for i := range pats {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	want := PackPatterns(c, pats)
	words := make([]uint64, len(c.PIs))
	// Pre-poison the buffer: PackPatternsInto must zero it.
	for i := range words {
		words[i] = ^uint64(0)
	}
	if k := PackPatternsInto(pats, words); k != len(pats) {
		t.Fatalf("packed %d patterns, want %d", k, len(pats))
	}
	for i := range words {
		if words[i] != want[i] {
			t.Fatalf("word %d: %#x want %#x", i, words[i], want[i])
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	c, err := logic.ParseBenchString("c17", c17Bench)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compile(c)
	}
}
