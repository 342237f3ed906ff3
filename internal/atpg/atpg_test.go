package atpg

import (
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

func andCircuit() *logic.Circuit {
	c := logic.New("and2")
	a := c.AddInput("A")
	b := c.AddInput("B")
	c.MarkOutput(c.AddGate(logic.And, "C", a, b))
	return c.MustFinalize()
}

// TestPodemFig1 regenerates the paper's Fig. 1 test: for "A s-a-1" on a
// 2-input AND, the only test is A=0, B=1.
func TestPodemFig1(t *testing.T) {
	c := andCircuit()
	and, _ := c.NetByName("C")
	view := PrimaryView(c)
	f := fault.Fault{Gate: and, Pin: 0, SA: logic.One}
	test, err := Podem(c, view, f, PodemConfig{})
	if err != nil {
		t.Fatalf("podem: %v", err)
	}
	if test.Values[0] != logic.Zero || test.Values[1] != logic.One {
		t.Fatalf("test = %v, want 01", test)
	}
	if !Verify(c, view, f, test) {
		t.Fatal("generated test fails verification")
	}
}

func TestDAlgFig1(t *testing.T) {
	c := andCircuit()
	and, _ := c.NetByName("C")
	view := PrimaryView(c)
	f := fault.Fault{Gate: and, Pin: 0, SA: logic.One}
	test, err := DAlg(c, view, f, PodemConfig{})
	if err != nil {
		t.Fatalf("dalg: %v", err)
	}
	if !Verify(c, view, f, test) {
		t.Fatalf("dalg test %v fails verification", test)
	}
}

// allFaultEngines cross-checks both deterministic engines on a circuit:
// every generated test must verify; coverage of testable faults must be
// complete for these known-irredundant circuits.
func checkEngine(t *testing.T, c *logic.Circuit, engine Engine, name string) {
	t.Helper()
	view := PrimaryView(c)
	u := fault.Universe(c)
	cl := fault.CollapseEquiv(c, u)
	cfg := PodemConfig{MaxBacktracks: 50000}
	for _, f := range cl.Reps {
		var test Test
		var err error
		if engine == EngineDAlg {
			test, err = DAlg(c, view, f, cfg)
		} else {
			test, err = Podem(c, view, f, cfg)
		}
		if err == ErrUntestable {
			t.Errorf("%s/%s: fault %s declared untestable in irredundant circuit", c.Name, name, f.Name(c))
			continue
		}
		if err != nil {
			t.Errorf("%s/%s: fault %s: %v", c.Name, name, f.Name(c), err)
			continue
		}
		if !Verify(c, view, f, test) {
			t.Errorf("%s/%s: fault %s: test %v does not detect", c.Name, name, f.Name(c), test)
		}
	}
}

func TestPodemCompleteOnLibrary(t *testing.T) {
	for _, c := range []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(4),
		circuits.ParityTree(8),
		circuits.Decoder(3),
		circuits.Mux(2),
		circuits.Comparator(3),
	} {
		checkEngine(t, c, EnginePodem, "podem")
	}
}

func TestDAlgCompleteOnLibrary(t *testing.T) {
	for _, c := range []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(3),
		circuits.ParityTree(6),
		circuits.Decoder(2),
	} {
		checkEngine(t, c, EngineDAlg, "dalg")
	}
}

func TestPodemOn74181(t *testing.T) {
	c := circuits.ALU74181()
	checkEngine(t, c, EnginePodem, "podem")
}

// TestRedundantFaultIdentified: a circuit with a redundant fault —
// y = (a AND b) OR (a AND NOT b); the OR output s-a-... Actually use
// the classic redundancy: z = a OR (a AND b); the AND output s-a-0 is
// redundant because z == a regardless.
func TestRedundantFaultIdentified(t *testing.T) {
	c := logic.New("redundant")
	a := c.AddInput("a")
	b := c.AddInput("b")
	ab := c.AddGate(logic.And, "ab", a, b)
	z := c.AddGate(logic.Or, "z", a, ab)
	c.MarkOutput(z)
	c.MustFinalize()
	view := PrimaryView(c)
	f := fault.Fault{Gate: ab, Pin: fault.Stem, SA: logic.Zero}
	if _, err := Podem(c, view, f, PodemConfig{}); err != ErrUntestable {
		t.Fatalf("podem: err = %v, want ErrUntestable", err)
	}
	if _, err := DAlg(c, view, f, PodemConfig{}); err != ErrUntestable {
		t.Fatalf("dalg: err = %v, want ErrUntestable", err)
	}
	// Exhaustive confirmation that no pattern detects it.
	for x := 0; x < 4; x++ {
		if fault.DetectsCombinational(c, []bool{x&1 == 1, x&2 == 2}, f) {
			t.Fatal("redundant fault is actually detectable?!")
		}
	}
}

func TestFullScanViewTurnsSequentialCombinational(t *testing.T) {
	c := circuits.Counter(4)
	// Under the primary view, internal faults of a counter are out of
	// reach for single-pattern combinational ATPG; under the full-scan
	// view everything is one frame away.
	scan := FullScanView(c)
	u := fault.Universe(c)
	cl := fault.CollapseEquiv(c, u)
	cfg := PodemConfig{MaxBacktracks: 20000}
	for _, f := range cl.Reps {
		test, err := Podem(c, scan, f, cfg)
		if err != nil {
			t.Fatalf("scan view: fault %s: %v", f.Name(c), err)
		}
		if !Verify(c, scan, f, test) {
			t.Fatalf("scan view: fault %s: test fails verification", f.Name(c))
		}
	}
}

func TestRandomGenerateCoverage(t *testing.T) {
	c := circuits.RippleAdder(8)
	u := fault.Universe(c)
	cl := fault.CollapseEquiv(c, u)
	rng := rand.New(rand.NewSource(42))
	res := RandomGenerate(c, PrimaryView(c), cl.Reps, 0.99, 2000, rng)
	if res.Coverage < 0.95 {
		t.Fatalf("random coverage on adder8 = %.3f, want >= 0.95", res.Coverage)
	}
	if len(res.Patterns) == 0 || res.Applied == 0 {
		t.Fatal("no patterns recorded")
	}
}

func TestRandomPatternsResistPLA(t *testing.T) {
	// Fig. 22's point: a PLA with 20-input products resists random
	// patterns. Coverage after the same budget must be far below the
	// fan-in-4 random network's.
	rng := rand.New(rand.NewSource(7))
	pla := circuits.RandomPLA(rng, 20, 8, 4, 20)
	nice := circuits.RandomCircuit(rng, 20, 100, 4, 4)
	budget := 2000
	plaRes := RandomGenerate(pla, PrimaryView(pla),
		fault.CollapseEquiv(pla, fault.Universe(pla)).Reps, 1.0, budget, rng)
	niceRes := RandomGenerate(nice, PrimaryView(nice),
		fault.CollapseEquiv(nice, fault.Universe(nice)).Reps, 1.0, budget, rng)
	if plaRes.Coverage >= niceRes.Coverage {
		t.Fatalf("PLA coverage %.3f should lag random-logic coverage %.3f",
			plaRes.Coverage, niceRes.Coverage)
	}
	if plaRes.Coverage > 0.8 {
		t.Fatalf("PLA coverage %.3f unexpectedly high", plaRes.Coverage)
	}
}

func TestWeightedBeatsUniformOnAndTree(t *testing.T) {
	// A wide AND tree needs mostly-1 inputs; weighted random patterns
	// ([95]) find those tests much faster than uniform ones.
	c := logic.New("andtree")
	var ins []int
	for i := 0; i < 16; i++ {
		ins = append(ins, c.AddInput("i"+string(rune('a'+i))))
	}
	c.MarkOutput(c.AddGate(logic.And, "y", ins...))
	c.MustFinalize()
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	budget := 3000
	uni := RandomGenerate(c, PrimaryView(c), cl.Reps, 1.0, budget, rand.New(rand.NewSource(1)))
	w := make([]float64, 16)
	for i := range w {
		w[i] = 0.9
	}
	wres := WeightedRandomGenerate(c, PrimaryView(c), cl.Reps, 1.0, budget, w, rand.New(rand.NewSource(1)))
	if wres.Coverage <= uni.Coverage {
		t.Fatalf("weighted %.3f should beat uniform %.3f on AND tree", wres.Coverage, uni.Coverage)
	}
}

func TestAdaptiveAtLeastMatchesUniform(t *testing.T) {
	c := logic.New("andtree")
	var ins []int
	for i := 0; i < 12; i++ {
		ins = append(ins, c.AddInput("i"+string(rune('a'+i))))
	}
	c.MarkOutput(c.AddGate(logic.And, "y", ins...))
	c.MustFinalize()
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	budget := 1500
	uni := RandomGenerate(c, PrimaryView(c), cl.Reps, 1.0, budget, rand.New(rand.NewSource(2)))
	ad := AdaptiveRandomGenerate(c, PrimaryView(c), cl.Reps, 1.0, budget, rand.New(rand.NewSource(2)))
	if ad.Coverage < uni.Coverage {
		t.Fatalf("adaptive %.3f below uniform %.3f", ad.Coverage, uni.Coverage)
	}
}

func TestGenerateFullFlow(t *testing.T) {
	for _, engine := range []Engine{EnginePodem, EngineDAlg} {
		c := circuits.RippleAdder(4)
		cl := fault.CollapseEquiv(c, fault.Universe(c))
		res := Generate(c, PrimaryView(c), cl.Reps, Config{
			Engine: engine, RandomSeed: 5, RandomFirst: 64,
		})
		if res.Coverage < 1.0 {
			t.Fatalf("engine %d: coverage %.3f, aborted %d, untestable %d",
				engine, res.Coverage, len(res.Aborted), len(res.Untestable))
		}
		if len(res.Aborted) != 0 {
			t.Fatalf("engine %d: %d aborted faults", engine, len(res.Aborted))
		}
	}
}

func TestGenerateDeterministicOnly(t *testing.T) {
	c := circuits.C17()
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	res := Generate(c, PrimaryView(c), cl.Reps, Config{Engine: EnginePodem})
	if res.Coverage < 1.0 {
		t.Fatalf("coverage %.3f", res.Coverage)
	}
	// c17's classical minimal test set has 4-5 patterns; deterministic
	// generation should not need more than one per fault class.
	if len(res.Patterns) > len(cl.Reps) {
		t.Fatalf("%d patterns for %d fault classes", len(res.Patterns), len(cl.Reps))
	}
}

func TestTestStringAndFill(t *testing.T) {
	tst := Test{Values: []logic.V{logic.Zero, logic.One, logic.X}}
	if tst.String() != "01X" {
		t.Errorf("String = %q", tst.String())
	}
	draws := 0
	filled := tst.Fill(func() bool { draws++; return true })
	if filled[0] || !filled[1] || !filled[2] || draws != 1 {
		t.Errorf("Fill = %v after %d draws, want [false true true] after 1", filled, draws)
	}
	b := tst.Bools()
	if b[0] || !b[1] || b[2] {
		t.Error("Bools wrong")
	}
}

func TestPartialScanView(t *testing.T) {
	c := circuits.Counter(4)
	full := FullScanView(c)
	partial := PartialScanView(c, c.DFFs[:2])
	if len(partial.Inputs) >= len(full.Inputs) {
		t.Fatal("partial view not smaller")
	}
	if len(partial.Inputs) != len(c.PIs)+2 {
		t.Fatalf("partial inputs = %d", len(partial.Inputs))
	}
}

func BenchmarkPodemAdder16(b *testing.B) {
	c := circuits.RippleAdder(16)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := PrimaryView(c)
	cfg := PodemConfig{MaxBacktracks: 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := cl.Reps[i%len(cl.Reps)]
		if _, err := Podem(c, view, f, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
