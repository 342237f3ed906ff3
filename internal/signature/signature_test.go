package signature

import (
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

// testBoard builds a small self-stimulating "microprocessor board":
// a kernel counter (the µP) feeding an adder module (ALU) feeding a
// parity module (checker), as one netlist with a module map.
func testBoard(t *testing.T) *Board {
	t.Helper()
	c := logic.New("board")
	en := c.AddInput("EN")
	// Kernel: 4-bit counter.
	qs := make([]int, 4)
	for i := range qs {
		qs[i] = c.AddDFF("Q"+string(rune('0'+i)), en) // patched below
	}
	carry := en
	for i := 0; i < 4; i++ {
		tnet := c.AddGate(logic.Xor, "T"+string(rune('0'+i)), qs[i], carry)
		c.Gates[qs[i]].Fanin[0] = tnet
		if i < 3 {
			carry = c.AddGate(logic.And, "CA"+string(rune('0'+i)), carry, qs[i])
		}
	}
	// ALU module: increment the counter value (add Q0' chain).
	s0 := c.AddGate(logic.Not, "S0", qs[0])
	c1 := c.AddGate(logic.And, "C1x", qs[0], qs[0])
	s1 := c.AddGate(logic.Xor, "S1", qs[1], c1)
	c2 := c.AddGate(logic.And, "C2x", qs[1], c1)
	s2 := c.AddGate(logic.Xor, "S2", qs[2], c2)
	c3 := c.AddGate(logic.And, "C3x", qs[2], c2)
	s3 := c.AddGate(logic.Xor, "S3", qs[3], c3)
	// Checker module: parity of the ALU outputs.
	p := c.AddGate(logic.Xor, "PAR", s0, s1, s2, s3)
	c.MarkOutput(p)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := &Board{
		C:        c,
		Stimulus: SelfStimulus(c, 50),
		Modules: []Module{
			{Name: "uP", Outputs: qs},
			{Name: "ALU", Outputs: []int{s0, s1, s2, s3}, Feeds: []string{"uP"}},
			{Name: "CHK", Outputs: []int{p}, Feeds: []string{"ALU"}},
		},
	}
	return b
}

func TestGoldenSignaturesRepeatable(t *testing.T) {
	b := testBoard(t)
	a := NewAnalyzer(16)
	q0, _ := b.C.NetByName("Q0")
	s1 := b.GoldenSignatures(a, []int{q0})
	s2 := b.GoldenSignatures(a, []int{q0})
	if s1[q0] != s2[q0] {
		t.Fatal("signatures not repeatable from reset")
	}
}

func TestProbeDistinguishesNets(t *testing.T) {
	b := testBoard(t)
	a := NewAnalyzer(16)
	q0, _ := b.C.NetByName("Q0")
	q3, _ := b.C.NetByName("Q3")
	sigs := b.GoldenSignatures(a, []int{q0, q3})
	if sigs[q0] == sigs[q3] {
		t.Fatal("distinct nets with distinct streams produced equal signatures")
	}
}

func TestDiagnoseFindsCulpritModule(t *testing.T) {
	b := testBoard(t)
	a := NewAnalyzer(16)
	// Fault inside the ALU module.
	s1net, _ := b.C.NetByName("S1")
	f := fault.Fault{Gate: s1net, Pin: fault.Stem, SA: logic.One}
	diag, err := b.Diagnose(a, f)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Culprit != "ALU" {
		t.Fatalf("culprit %q, want ALU (bad nets %v)", diag.Culprit, diag.BadNets)
	}
	if diag.Probes == 0 {
		t.Fatal("no probes counted")
	}
}

func TestDiagnoseKernelFault(t *testing.T) {
	b := testBoard(t)
	a := NewAnalyzer(16)
	q1, _ := b.C.NetByName("Q1")
	f := fault.Fault{Gate: q1, Pin: fault.Stem, SA: logic.Zero}
	diag, err := b.Diagnose(a, f)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Culprit != "uP" {
		t.Fatalf("culprit %q, want uP", diag.Culprit)
	}
}

func TestLoopDetectionAndBreaking(t *testing.T) {
	b := testBoard(t)
	// Close the loop: the checker feeds the kernel.
	for i := range b.Modules {
		if b.Modules[i].Name == "uP" {
			b.Modules[i].Feeds = append(b.Modules[i].Feeds, "CHK")
		}
	}
	loops := b.DetectLoops()
	if len(loops) == 0 {
		t.Fatal("loop not detected")
	}
	a := NewAnalyzer(16)
	q0, _ := b.C.NetByName("Q0")
	if _, err := b.Diagnose(a, fault.Fault{Gate: q0, Pin: fault.Stem, SA: logic.One}); err == nil {
		t.Fatal("Diagnose must refuse a looped board")
	}
	if err := b.BreakLoop("uP", "CHK"); err != nil {
		t.Fatal(err)
	}
	if loops := b.DetectLoops(); len(loops) != 0 {
		t.Fatalf("loops remain after break: %v", loops)
	}
	if _, err := b.Diagnose(a, fault.Fault{Gate: q0, Pin: fault.Stem, SA: logic.One}); err != nil {
		t.Fatalf("diagnose after break: %v", err)
	}
	if err := b.BreakLoop("uP", "CHK"); err == nil {
		t.Fatal("double break must error")
	}
	if err := b.BreakLoop("nope", "CHK"); err == nil {
		t.Fatal("unknown module must error")
	}
}

func TestDetectionExperimentHighCatchRate(t *testing.T) {
	b := testBoard(t)
	a := NewAnalyzer(16)
	par, _ := b.C.NetByName("PAR")
	u := fault.Universe(b.C)
	caught, disturbed := DetectionExperiment(b, a, par, u)
	if disturbed == 0 {
		t.Fatal("no fault disturbed the probed net")
	}
	rate := float64(caught) / float64(disturbed)
	if rate < 0.99 {
		t.Fatalf("16-bit signature catch rate %.4f, want ~1", rate)
	}
}

func TestSelfStimulusDeterministic(t *testing.T) {
	c := circuits.Counter(4)
	s1 := SelfStimulus(c, 20)
	s2 := SelfStimulus(c, 20)
	for i := range s1 {
		for j := range s1[i] {
			if s1[i][j] != s2[i][j] {
				t.Fatal("stimulus not deterministic")
			}
		}
	}
	if len(s1) != 20 || len(s1[0]) != len(c.PIs) {
		t.Fatal("stimulus shape wrong")
	}
}

func TestShortSignatureAliasesMoreThanLong(t *testing.T) {
	// Fig. 8's quantitative point, measured end to end: a 3-bit
	// analyzer (the figure's toy) aliases on some faults that a 16-bit
	// analyzer catches.
	b := testBoard(t)
	par, _ := b.C.NetByName("PAR")
	u := fault.Universe(b.C)
	c3, d3 := DetectionExperiment(b, NewAnalyzer(3), par, u)
	c16, d16 := DetectionExperiment(b, NewAnalyzer(16), par, u)
	if d3 != d16 {
		t.Fatalf("disturbed counts differ: %d vs %d", d3, d16)
	}
	if c3 > c16 {
		t.Fatalf("3-bit catch %d exceeds 16-bit catch %d", c3, c16)
	}
}

func TestMachineInterfaces(t *testing.T) {
	// The probe takes the good and the faulty machine alike.
	b := testBoard(t)
	a := NewAnalyzer(8)
	q0, _ := b.C.NetByName("Q0")
	g := fault.NewMachine(b.C, nil)
	f := fault.NewMachine(b.C, &fault.Fault{Gate: q0, Pin: fault.Stem, SA: logic.One})
	if a.Probe(g, b.Stimulus, q0) == a.Probe(f, b.Stimulus, q0) {
		t.Fatal("stuck Q0 should change its own signature")
	}
}
