package bilbo

import (
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
)

func TestModeSystemLoadsParallel(t *testing.T) {
	r := NewRegister(8)
	z := []bool{true, false, true, true, false, false, true, false}
	r.Clock(ModeSystem, z, false)
	q := r.Q()
	for i := range z {
		if q[i] != z[i] {
			t.Fatalf("latch %d = %v, want %v", i, q[i], z[i])
		}
	}
}

func TestModeResetClears(t *testing.T) {
	r := NewRegister(8)
	r.SetQ([]bool{true, true, true, true, true, true, true, true})
	r.Clock(ModeReset, nil, false)
	if r.QWord() != 0 {
		t.Fatalf("after reset QWord = %x", r.QWord())
	}
}

func TestModeShiftThroughInverters(t *testing.T) {
	r := NewRegister(4)
	// Shift a single 1 in: it enters inverted at L1.
	r.Clock(ModeShift, nil, true)
	q := r.Q()
	if q[0] != false { // NOT(1)
		t.Fatalf("L1 after shifting 1 = %v, want false (inverted)", q[0])
	}
	r2 := NewRegister(4)
	r2.Clock(ModeShift, nil, false)
	if r2.Q()[0] != true { // NOT(0)
		t.Fatal("L1 after shifting 0 should be true")
	}
}

func TestScanOutAllCompensatesInversions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		r := NewRegister(8)
		vals := make([]bool, 8)
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
		}
		r.SetQ(vals)
		got := r.ScanOutAll()
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("trial %d: position %d = %v, want %v", trial, i, got[i], vals[i])
			}
		}
	}
}

func TestPNSequenceMaximal(t *testing.T) {
	r := NewRegister(8)
	r.SetQ(seedBits(1, 8))
	seen := map[uint64]bool{}
	seq := r.PNSequence(255)
	for _, w := range seq {
		if w == 0 {
			t.Fatal("PN generator reached the all-zero lockup state")
		}
		if seen[w] {
			t.Fatalf("state %02x repeated before full period", w)
		}
		seen[w] = true
	}
	if len(seen) != 255 {
		t.Fatalf("PN sequence visited %d states, want 255", len(seen))
	}
}

func TestSignatureModeMatchesMISR(t *testing.T) {
	// With Z inputs all zero, signature mode must behave exactly like
	// the package lfsr's plain LFSR of the same taps.
	r := NewRegister(8)
	r.SetQ(seedBits(1, 8))
	pn := r.PNSequence(50)
	l := lfsr.NewMaximal(8)
	l.SetState(1)
	for i, w := range pn {
		l.Clock()
		if w != l.State() {
			t.Fatalf("clock %d: BILBO PN state %02x, LFSR state %02x", i+1, w, l.State())
		}
	}
}

// seedBits expands a word seed into latch values.
func seedBits(seed uint64, n int) []bool { return lfsr.UnpackBits(seed, n) }

func newAdderPair() (*logic.Circuit, *logic.Circuit) {
	return circuits.RippleAdder(3), circuits.ParityTree(8)
}

func TestSelfTestGoldenRepeatable(t *testing.T) {
	c1, c2 := newAdderPair()
	st := NewSelfTest(c1, c2, 8, 8, 100)
	g1a, g2a := st.GoodSignatures()
	g1b, g2b := st.GoodSignatures()
	if g1a != g1b || g2a != g2b {
		t.Fatal("golden signatures not repeatable")
	}
}

func TestSelfTestDetectsFaultsInBothNetworks(t *testing.T) {
	c1, c2 := newAdderPair()
	st := NewSelfTest(c1, c2, 8, 8, 200)
	// Fault in C1: stem fault on the first sum gate.
	s0, _ := c1.NetByName("S0")
	if !st.Detects(1, fault.Fault{Gate: s0, Pin: fault.Stem, SA: logic.One}) {
		t.Fatal("self-test missed C1 fault")
	}
	// Fault in C2: parity output stuck.
	par, _ := c2.NetByName("PAR")
	if !st.Detects(2, fault.Fault{Gate: par, Pin: fault.Stem, SA: logic.Zero}) {
		t.Fatal("self-test missed C2 fault")
	}
}

func TestSelfTestCoverageHighOnRandomFriendlyLogic(t *testing.T) {
	c1, c2 := newAdderPair()
	st := NewSelfTest(c1, c2, 8, 8, 300)
	u := fault.CollapseEquiv(c1, fault.Universe(c1))
	cs := st.MeasureCoverage(u.Reps)
	if cs.Coverage() < 0.95 {
		t.Fatalf("BILBO coverage on adder = %.3f, want >= 0.95", cs.Coverage())
	}
}

// TestFig22PLAResistsBILBO: the paper's PLA argument, run through the
// actual BILBO machinery: a wide-AND PLA sees far lower random-pattern
// coverage than the adder at the same pattern budget.
func TestFig22PLAResistsBILBO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pla := circuits.RandomPLA(rng, 16, 6, 4, 16)
	other := circuits.ParityTree(8)
	st := NewSelfTest(pla, other, 16, 8, 300)
	u := fault.CollapseEquiv(pla, fault.Universe(pla))
	cs := st.MeasureCoverage(u.Reps)

	adder := circuits.RippleAdder(3)
	st2 := NewSelfTest(adder, other, 8, 8, 300)
	u2 := fault.CollapseEquiv(adder, fault.Universe(adder))
	cs2 := st2.MeasureCoverage(u2.Reps)
	if cs.Coverage() >= cs2.Coverage() {
		t.Fatalf("PLA coverage %.3f should trail adder coverage %.3f",
			cs.Coverage(), cs2.Coverage())
	}
}

// TestSessionClampPreventsPairwiseCancellation is the regression test
// for a subtle BIST footgun: running the session past the generator's
// period makes repeated error contributions cancel pairwise in the
// MISR (the update matrix has order = period), so a 512-pattern
// session on an 8-bit generator must behave like a 255-pattern one.
func TestSessionClampPreventsPairwiseCancellation(t *testing.T) {
	c1, c2 := newAdderPair()
	u := fault.CollapseEquiv(c1, fault.Universe(c1))
	atPeriod := NewSelfTest(c1, c2, 8, 8, 255).MeasureCoverage(u.Reps)
	beyond := NewSelfTest(c1, c2, 8, 8, 512).MeasureCoverage(u.Reps)
	if beyond.Coverage() < atPeriod.Coverage()-1e-9 {
		t.Fatalf("coverage collapsed past the period: %.3f vs %.3f",
			beyond.Coverage(), atPeriod.Coverage())
	}
}

func TestDataVolumeFactor(t *testing.T) {
	scan, bb := DataVolume(100, 100)
	if scan/bb != 100 {
		t.Fatalf("data volume ratio %d, want 100 (the paper's factor)", scan/bb)
	}
}

func TestNewSelfTestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized network must panic")
		}
	}()
	NewSelfTest(circuits.RippleAdder(8), circuits.ParityTree(4), 8, 8, 10)
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegister(4)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width Z must panic")
		}
	}()
	r.Clock(ModeSystem, []bool{true}, false)
}
