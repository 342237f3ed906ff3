package fault

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/sim"
)

// mustSimulate runs Simulate with the given options, failing the test
// on error — the migration shim for the removed convenience wrappers.
func mustSimulate(tb testing.TB, c *logic.Circuit, faults []Fault, patterns [][]bool, opts Options) *Result {
	tb.Helper()
	res, err := Simulate(context.Background(), c, faults, patterns, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// andGate builds the paper's Fig. 1 circuit: a single 2-input AND.
func andGate() *logic.Circuit {
	c := logic.New("and2")
	a := c.AddInput("A")
	b := c.AddInput("B")
	c.MarkOutput(c.AddGate(logic.And, "C", a, b))
	return c.MustFinalize()
}

// TestFig1StuckAt reproduces the paper's Fig. 1: pattern A=0,B=1 is a
// test for "A s-a-1" because the good machine outputs 0 and the faulty
// machine outputs 1.
func TestFig1StuckAt(t *testing.T) {
	c := andGate()
	and, _ := c.NetByName("C")
	f := Fault{Gate: and, Pin: 0, SA: logic.One} // input A s-a-1
	pattern := []bool{false, true}               // A=0, B=1
	good := sim.Eval(c, pattern, nil)
	bad := make([]bool, c.NumNets())
	EvalInto(c, pattern, nil, &f, bad, make([]bool, c.MaxFanin()))
	if good[and] != false || bad[and] != true {
		t.Fatalf("good=%v bad=%v; want 0/1", good[and], bad[and])
	}
	if !DetectsCombinational(c, pattern, f) {
		t.Fatal("pattern 01 must detect A s-a-1")
	}
	// A=1,B=1 is NOT a test: both machines output 1.
	if DetectsCombinational(c, []bool{true, true}, f) {
		t.Fatal("pattern 11 must not detect A s-a-1")
	}
}

// TestUniverseCount checks the paper's accounting: a network of G
// 2-input gates has 6G pin faults (2 inputs + 1 output, two polarities)
// plus 2 per primary input.
func TestUniverseCount(t *testing.T) {
	c := circuits.C17()
	fs := Universe(c)
	want := 6*6 + 2*5 // 6 NANDs + 5 PIs
	if len(fs) != want {
		t.Fatalf("universe size %d, want %d", len(fs), want)
	}
}

func TestCollapseEquivC17(t *testing.T) {
	c := circuits.C17()
	u := Universe(c)
	cl := CollapseEquiv(c, u)
	if len(cl.Reps) >= len(u) {
		t.Fatalf("collapsing did not reduce: %d -> %d", len(u), len(cl.Reps))
	}
	// Every fault maps to a class whose representative exists.
	for _, f := range u {
		i, ok := cl.ClassOf[f]
		if !ok || i < 0 || i >= len(cl.Reps) {
			t.Fatalf("fault %v unmapped", f)
		}
	}
	// Known equivalence on c17: NAND input s-a-0 ≡ output s-a-1.
	g22, _ := c.NetByName("G22")
	a := cl.ClassOf[Fault{g22, 0, logic.Zero}]
	b := cl.ClassOf[Fault{g22, Stem, logic.One}]
	if a != b {
		t.Error("NAND in s-a-0 and out s-a-1 not merged")
	}
	// And s-a-1 on distinct inputs must NOT merge.
	if cl.ClassOf[Fault{g22, 0, logic.One}] == cl.ClassOf[Fault{g22, 1, logic.One}] {
		t.Error("distinct NAND input s-a-1 faults wrongly merged")
	}
}

// TestCollapseEquivalencePreservesDetection is the key property: any
// pattern detects a fault iff it detects the fault's class
// representative.
func TestCollapseEquivalencePreservesDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(3),
		circuits.RandomCircuit(rng, 8, 60, 4, 4),
	}
	for _, c := range cases {
		u := Universe(c)
		cl := CollapseEquiv(c, u)
		for trial := 0; trial < 40; trial++ {
			pat := make([]bool, len(c.PIs))
			for i := range pat {
				pat[i] = rng.Intn(2) == 1
			}
			for _, f := range u {
				rep := cl.Reps[cl.ClassOf[f]]
				if rep == f {
					continue
				}
				df := DetectsCombinational(c, pat, f)
				dr := DetectsCombinational(c, pat, rep)
				if df != dr {
					t.Fatalf("%s: pattern %v: fault %s det=%v but rep %s det=%v",
						c.Name, pat, f.Name(c), df, rep.Name(c), dr)
				}
			}
		}
	}
}

func TestCollapseRatioLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := circuits.RandomCircuit(rng, 20, 1000, 10, 2)
	u := Universe(c)
	cl := CollapseEquiv(c, u)
	ratio := float64(len(cl.Reps)) / float64(len(u))
	// The paper: 6000 faults -> "about 3000". Structural equivalence
	// should land well below 0.75 and above 0.3.
	if ratio > 0.75 || ratio < 0.30 {
		t.Fatalf("collapse ratio %.2f (%d -> %d) outside plausible band",
			ratio, len(u), len(cl.Reps))
	}
}

func TestCollapseDominanceShrinks(t *testing.T) {
	c := circuits.C17()
	u := Universe(c)
	cl := CollapseEquiv(c, u)
	dom := CollapseDominance(c, cl.Reps)
	if len(dom) >= len(cl.Reps) {
		t.Fatalf("dominance did not shrink: %d -> %d", len(cl.Reps), len(dom))
	}
}

// TestParallelMatchesSerial cross-checks PPSFP against scalar faulty
// simulation on random patterns — the central simulator consistency
// property.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(4),
		circuits.ALU74181(),
		circuits.RandomCircuit(rng, 10, 150, 6, 4),
	}
	for _, c := range cases {
		u := Universe(c)
		patterns := make([][]bool, 96)
		for k := range patterns {
			p := make([]bool, len(c.PIs))
			for i := range p {
				p[i] = rng.Intn(2) == 1
			}
			patterns[k] = p
		}
		res := mustSimulate(t, c, u, patterns, Options{Backend: BackendParallel, Drop: DropOff})
		// Spot-check a sample of faults serially.
		for s := 0; s < 200; s++ {
			fi := rng.Intn(len(u))
			f := u[fi]
			serialFirst := -1
			for pi, pat := range patterns {
				if DetectsCombinational(c, pat, f) {
					serialFirst = pi
					break
				}
			}
			if (serialFirst >= 0) != res.Detected[fi] {
				t.Fatalf("%s: fault %s: serial det=%v parallel det=%v",
					c.Name, f.Name(c), serialFirst >= 0, res.Detected[fi])
			}
			if serialFirst != res.DetectedBy[fi] {
				t.Fatalf("%s: fault %s: first detection serial=%d parallel=%d",
					c.Name, f.Name(c), serialFirst, res.DetectedBy[fi])
			}
		}
	}
}

func TestDropVsNoDropAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := circuits.RippleAdder(4)
	u := Universe(c)
	patterns := make([][]bool, 128)
	for k := range patterns {
		p := make([]bool, len(c.PIs))
		for i := range p {
			p[i] = rng.Intn(2) == 1
		}
		patterns[k] = p
	}
	a := mustSimulate(t, c, u, patterns, Options{Backend: BackendParallel})
	b := mustSimulate(t, c, u, patterns, Options{Backend: BackendParallel, Drop: DropOff})
	for i := range u {
		if a.Detected[i] != b.Detected[i] || a.DetectedBy[i] != b.DetectedBy[i] {
			t.Fatalf("fault %s: drop (%v,%d) vs nodrop (%v,%d)",
				u[i].Name(c), a.Detected[i], a.DetectedBy[i], b.Detected[i], b.DetectedBy[i])
		}
	}
	if a.Coverage() != b.Coverage() {
		t.Fatal("coverage mismatch")
	}
}

func TestExhaustiveCoverageAdder(t *testing.T) {
	// Exhaustive patterns must detect every non-redundant fault of the
	// ripple adder; the adder has no redundancy, so coverage is 100%.
	c := circuits.RippleAdder(3)
	u := Universe(c)
	n := len(c.PIs)
	patterns := make([][]bool, 1<<uint(n))
	for x := range patterns {
		p := make([]bool, n)
		for i := range p {
			p[i] = x>>uint(i)&1 == 1
		}
		patterns[x] = p
	}
	res := mustSimulate(t, c, u, patterns, Options{Backend: BackendParallel})
	if res.Coverage() != 1.0 {
		var left []string
		for _, f := range res.Undetected() {
			left = append(left, f.Name(c))
		}
		t.Fatalf("coverage %.3f; undetected: %v", res.Coverage(), left)
	}
}

func TestSequentialShiftRegisterLatency(t *testing.T) {
	// A stuck fault at the head of an n-stage shift register needs n
	// cycles to reach the output — the observability lag that motivates
	// scan design.
	n := 6
	c := circuits.ShiftRegister(n)
	r0, _ := c.NetByName("R0")
	f := Fault{Gate: r0, Pin: Stem, SA: logic.One}
	seq := make([][]bool, 12)
	for i := range seq {
		seq[i] = []bool{false} // SIN held 0; fault forces 1s through
	}
	res := SimulateSequence(c, []Fault{f}, seq)
	if !res.Detected[0] {
		t.Fatal("fault undetected")
	}
	if res.DetectCyc[0] != n-1 {
		t.Fatalf("detected at cycle %d, want %d", res.DetectCyc[0], n-1)
	}
}

func TestSequentialCoverageCounter(t *testing.T) {
	c := circuits.Counter(3)
	u := Universe(c)
	seq := make([][]bool, 32)
	for i := range seq {
		seq[i] = []bool{true}
	}
	res := SimulateSequence(c, u, seq)
	if res.Coverage() < 0.5 {
		t.Fatalf("counting for 32 cycles should catch most faults, got %.2f", res.Coverage())
	}
	if res.NumCaught == len(u) {
		t.Log("all faults caught (enable-off behavior untested, expected some misses)")
	}
}

// TestMachineMatchesSimulateSequence holds the cycle-level faulty
// machine to the serial sequential simulator: from reset, over the
// same input sequence, every fault first shows at the same cycle. A
// D-input fault corrupts only captured values, so it must not touch
// the reset state.
func TestMachineMatchesSimulateSequence(t *testing.T) {
	for _, c := range []*logic.Circuit{circuits.ShiftRegister(4), circuits.Counter(4), circuits.FSM()} {
		rng := rand.New(rand.NewSource(7))
		seq := make([][]bool, 8)
		for i := range seq {
			seq[i] = make([]bool, len(c.PIs))
			for j := range seq[i] {
				seq[i][j] = rng.Intn(2) == 1
			}
		}
		good := NewMachine(c, nil).Run(seq)
		u := Universe(c)
		ref := SimulateSequence(c, u, seq)
		for i, f := range u {
			m := NewMachine(c, &f)
			first := -1
			for cyc, pi := range seq {
				if !slices.Equal(m.Step(pi), good[cyc]) {
					first = cyc
					break
				}
			}
			if first != ref.DetectCyc[i] {
				t.Errorf("%s %s: Machine first fails at cycle %d, SimulateSequence at %d",
					c.Name, f.Name(c), first, ref.DetectCyc[i])
			}
		}
	}
}

func TestFaultNameAndSite(t *testing.T) {
	c := circuits.C17()
	g22, _ := c.NetByName("G22")
	f := Fault{g22, 0, logic.Zero}
	if got := f.Name(c); got != "G22.in0(G10) s-a-0" {
		t.Errorf("Name = %q", got)
	}
	g10, _ := c.NetByName("G10")
	if f.Site(c) != g10 {
		t.Errorf("Site = %d, want %d", f.Site(c), g10)
	}
	fs := Fault{g22, Stem, logic.One}
	if fs.Site(c) != g22 {
		t.Error("stem site wrong")
	}
	if got := fs.Name(c); got != "G22 s-a-1" {
		t.Errorf("stem Name = %q", got)
	}
}
