package fuzzdiff

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := ShapeConfig(seed)
		a := logic.BenchString(Generate(cfg, seed))
		b := logic.BenchString(Generate(cfg, seed))
		if a != b {
			t.Fatalf("seed %d: two Generate calls disagree", seed)
		}
	}
}

// TestGenerateLintClean holds generator output and the builtin library
// to zero lint diagnostics, warnings included: the shaped seeds, corner
// configs the shapes under-sample (const-heavy, tie-heavy XOR, deep
// sequential, BUF/NOT chains, deep-biased wide), and every builtin
// circuit at its default size.
func TestGenerateLintClean(t *testing.T) {
	check := func(t *testing.T, c *logic.Circuit) {
		t.Helper()
		if ds := Lint(c); len(ds) != 0 {
			t.Fatalf("diagnostics: %v", ds)
		}
		if len(c.POs) == 0 {
			t.Fatal("no primary outputs")
		}
	}
	seq := 0
	for seed := int64(0); seed <= 60; seed++ {
		cfg := ShapeConfig(seed)
		if cfg.DFFs > 0 {
			seq++
		}
		c := Generate(cfg, seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { check(t, c) })
	}
	if seq == 0 {
		t.Fatal("no sequential circuit in 61 seeds; ShapeConfig DFF mix broken")
	}
	corners := []Config{
		{Inputs: 4, Gates: 80, ConstProb: 0.45, TieProb: 0.30},
		{Inputs: 3, Gates: 60, MaxFanin: 2, GateMix: []logic.GateType{logic.Xor, logic.Xnor}, TieProb: 0.4},
		{Inputs: 6, Gates: 120, DFFs: 6, ConstProb: 0.25},
		{Inputs: 2, Gates: 40, GateMix: []logic.GateType{logic.Buf, logic.Not}},
		{Inputs: 10, Gates: 200, DepthBias: 0.95},
	}
	for i, cfg := range corners {
		for s := int64(0); s < 8; s++ {
			c := Generate(cfg, 1000+int64(i)*8+s)
			t.Run(fmt.Sprintf("corner%d_seed%d", i, s), func(t *testing.T) { check(t, c) })
		}
	}
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { check(t, c) })
	}
}

func TestGenerateBenchRoundTrip(t *testing.T) {
	c := Generate(ShapeConfig(3), 3)
	got, err := logic.ParseBench(c.Name, strings.NewReader(logic.BenchString(c)))
	if err != nil {
		t.Fatalf("generated circuit does not re-parse: %v", err)
	}
	if got.NumNets() != c.NumNets() || len(got.POs) != len(c.POs) {
		t.Fatalf("round trip changed shape: %d/%d nets, %d/%d POs",
			got.NumNets(), c.NumNets(), len(got.POs), len(c.POs))
	}
}

func lintCodes(ds []Diagnostic) map[string]bool {
	m := map[string]bool{}
	for _, d := range ds {
		m[d.Code] = true
	}
	return m
}

func TestLintWidthMismatch(t *testing.T) {
	c := logic.New("w")
	a := c.AddInput("a")
	g := c.AddGate(logic.Not, "g", a)
	c.Gates[g].Fanin = append(c.Gates[g].Fanin, a) // 2-input NOT
	c.MarkOutput(g)
	ds := Lint(c)
	if !HasErrors(ds) || !lintCodes(ds)[CodeWidthMismatch] {
		t.Fatalf("want width-mismatch error, got %v", ds)
	}
}

func TestLintCombLoop(t *testing.T) {
	c := logic.New("loop")
	a := c.AddInput("a")
	g1 := c.AddGate(logic.Buf, "g1", a)
	g2 := c.AddGate(logic.Buf, "g2", g1)
	c.Gates[g1].Fanin[0] = g2 // g1 <-> g2
	c.MarkOutput(g2)
	ds := Lint(c)
	if !lintCodes(ds)[CodeCombLoop] {
		t.Fatalf("want comb-loop error, got %v", ds)
	}
}

func TestLintDFFFeedbackIsNotALoop(t *testing.T) {
	c := logic.New("seq")
	a := c.AddInput("a")
	ff := c.AddDFF("ff", a)
	g := c.AddGate(logic.And, "g", a, ff)
	c.Gates[ff].Fanin[0] = g // feedback through the flop
	c.MarkOutput(g)
	if ds := Lint(c); HasErrors(ds) {
		t.Fatalf("sequential feedback flagged as error: %v", ds)
	}
}

func TestLintDanglingAndRange(t *testing.T) {
	c := logic.New("d")
	a := c.AddInput("a")
	c.AddGate(logic.Not, "dead", a) // never read, not a PO
	g := c.AddGate(logic.Buf, "g", a)
	c.Gates[g].Fanin[0] = 99 // out of range
	c.MarkOutput(g)
	codes := lintCodes(Lint(c))
	if !codes[CodeDanglingNet] || !codes[CodeFaninRange] {
		t.Fatalf("want dangling-net and fanin-range, got %v", Lint(c))
	}
}

func TestLintNoOutputs(t *testing.T) {
	c := logic.New("no")
	c.AddInput("a")
	if !lintCodes(Lint(c))[CodeNoOutputs] {
		t.Fatal("want no-outputs warning")
	}
}

func TestMatrixShape(t *testing.T) {
	m := Matrix()
	seen := map[string]bool{}
	for _, sc := range m {
		if seen[sc.String()] {
			t.Fatalf("duplicate cell %s", sc)
		}
		seen[sc.String()] = true
	}
	if !seen[Baseline().String()] {
		t.Fatal("matrix must contain the baseline cell")
	}
	// Auto, the production default, decides per block, so it is swept
	// as its own cells.
	for _, w := range []int{1, 2} {
		for _, drop := range []fault.DropMode{fault.DropOn, fault.DropOff} {
			if sc := (SimConfig{fault.Auto, w, drop}); !seen[sc.String()] {
				t.Fatalf("matrix lacks the Auto cell %s", sc)
			}
		}
	}
}

func TestRandomPatternsDeterministic(t *testing.T) {
	a := RandomPatterns(5, 4, 9)
	b := RandomPatterns(5, 4, 9)
	for i := range a {
		if patString(a[i]) != patString(b[i]) {
			t.Fatal("RandomPatterns not deterministic")
		}
	}
}

// TestRoundCleanTree is the clean-tree acceptance check in miniature:
// a spread of seeds, combinational and sequential, must produce zero
// divergences across the kernel checks and the whole backend matrix.
func TestRoundCleanTree(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		if d := Round(ShapeConfig(seed), seed, RoundOptions{Patterns: 48, Vectors: 6}); d != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, d.Repro())
		}
	}
}

// TestCheckCompactionCleanSweep is the compaction acceptance check:
// 200 seeded rounds of the compaction cross-oracle — reverse replay
// against an independent baseline grade, worker invariance, full mode
// detecting exactly what the filled cubes detect at every worker count
// and full never keeping more patterns than reverse — must produce
// zero divergences.
func TestCheckCompactionCleanSweep(t *testing.T) {
	rounds := int64(200)
	if testing.Short() {
		rounds = 25
	}
	for seed := int64(1); seed <= rounds; seed++ {
		c := Generate(ShapeConfig(seed), seed)
		if ds := Lint(c); HasErrors(ds) {
			t.Fatalf("seed %d: generator emitted errors: %v", seed, ds)
		}
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := RandomPatterns(len(c.PIs), 48, seed^0x6A09E667)
		d, err := CheckCompaction(context.Background(), c, faults, pats, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, d.Repro())
		}
	}
}

// TestCheckDictionaryCleanSweep is the dictionary acceptance check:
// seeded rounds of the dictionary cross-oracle — detect-bit agreement
// with an independent baseline grade, worker/backend invariance of the
// rows, and closed-loop observe→lookup→rank — must produce zero
// divergences.
func TestCheckDictionaryCleanSweep(t *testing.T) {
	rounds := int64(60)
	if testing.Short() {
		rounds = 10
	}
	for seed := int64(1); seed <= rounds; seed++ {
		c := Generate(ShapeConfig(seed), seed)
		if ds := Lint(c); HasErrors(ds) {
			t.Fatalf("seed %d: generator emitted errors: %v", seed, ds)
		}
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := RandomPatterns(len(c.PIs), 48, seed^0x243F6A88)
		d, err := CheckDictionary(context.Background(), c, faults, pats, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			t.Fatalf("seed %d diverged:\n%s", seed, d.Repro())
		}
	}
}

// TestDictDivergenceRepro checks that a dict-kind finding carries a
// usable repro: the netlist, the whole pattern set (rows are set-level
// properties), and replay instructions.
func TestDictDivergenceRepro(t *testing.T) {
	c := Generate(ShapeConfig(4), 4)
	pats := RandomPatterns(len(c.PIs), 8, 4)
	d := dictDivergence(c, 4, pats, "fault g1 s-a-0: synthetic detail")
	if d.Kind != "dict" || len(d.Patterns) != len(pats) {
		t.Fatalf("divergence malformed: %+v", d)
	}
	for _, want := range []string{"synthetic detail", ".bench", "replay: dftc fuzz -seeds 4"} {
		if !strings.Contains(d.Repro(), want) {
			t.Fatalf("repro missing %q:\n%s", want, d.Repro())
		}
	}
}

// TestBrokenKernelCaught corrupts each instruction of a compiled
// program in turn and requires the differential checker to catch at
// least one mutant with a usable, replayable repro — the acceptance
// demo that the oracle has teeth.
func TestBrokenKernelCaught(t *testing.T) {
	cfg := ShapeConfig(5)
	cfg.DFFs = 0
	c := Generate(cfg, 5)
	if d := CheckKernels(c, 5, 8); d != nil {
		t.Fatalf("clean circuit diverged:\n%s", d.Repro())
	}
	caught := 0
	var sample *Divergence
	n := sim.Compile(c).NumInstrs()
	for i := 0; i < n; i++ {
		p := sim.Compile(c)
		p.CorruptOpcodeForTest(i)
		if d := CheckProgram(c, p, 5, 8); d != nil {
			caught++
			if sample == nil {
				sample = d
				sample.Seed = 5
				// Replay the repro: the minimized pattern must still
				// distinguish the corrupted program from the interpreter.
				pi := sample.Patterns[0][:len(c.PIs)]
				st := sample.Patterns[0][len(c.PIs):]
				ref := make([]bool, c.NumNets())
				got := make([]bool, c.NumNets())
				sim.EvalInterpInto(c, pi, st, ref, nil)
				p.EvalInto(pi, st, got)
				same := true
				for id := range ref {
					if ref[id] != got[id] {
						same = false
					}
				}
				if same {
					t.Fatalf("repro pattern does not replay the divergence:\n%s", d.Repro())
				}
			}
		}
	}
	if caught == 0 {
		t.Fatalf("no corrupted instruction caught out of %d", n)
	}
	t.Logf("caught %d/%d opcode mutants", caught, n)
	for _, want := range []string{"fuzzdiff kernel divergence", "pattern[0]", ".bench", "replay: dftc fuzz -seeds 5"} {
		if !strings.Contains(sample.Repro(), want) {
			t.Fatalf("repro missing %q:\n%s", want, sample.Repro())
		}
	}
}

// TestCheckBackendsSequential exercises the full matrix on a
// DFF-bearing circuit.
func TestCheckBackendsSequential(t *testing.T) {
	cfg := ShapeConfig(2)
	cfg.DFFs = 3
	c := Generate(cfg, 2)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	pats := RandomPatterns(len(c.PIs), 32, 2)
	d, err := CheckBackends(context.Background(), c, faults, pats, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("sequential matrix diverged:\n%s", d.Repro())
	}
}
