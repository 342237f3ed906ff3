package lssd

import (
	"math/rand"
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

func TestSRLBasicClocks(t *testing.T) {
	var s SRL
	s.ClockC(true)
	if !s.L1 || s.L2 {
		t.Fatal("C clock should set L1 only")
	}
	s.ClockB()
	if !s.L2 {
		t.Fatal("B clock should copy L1 to L2")
	}
	s.ClockA(false)
	if s.L1 || !s.L2 {
		t.Fatal("A clock should load scan data into L1, leaving L2")
	}
}

func TestChainLoadUnloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 8, 17} {
		ch := NewChain(n)
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
		}
		ch.Load(vals)
		got := ch.State()
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("n=%d: Load: position %d = %v, want %v (state %v)", n, i, got[i], vals[i], got)
			}
		}
		out := ch.Unload()
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("n=%d: Unload: position %d = %v, want %v", n, i, out[i], vals[i])
			}
		}
	}
}

func TestChainSimultaneousLoadUnload(t *testing.T) {
	ch := NewChain(4)
	first := []bool{true, false, true, true}
	ch.Load(first)
	second := []bool{false, true, false, false}
	observed := ch.Load(second)
	for i := range first {
		if observed[i] != first[i] {
			t.Fatalf("simultaneous unload position %d = %v, want %v", i, observed[i], first[i])
		}
	}
}

func TestCaptureSystemVisibleOnScanPath(t *testing.T) {
	ch := NewChain(3)
	ch.CaptureSystem([]bool{true, false, true})
	out := ch.Unload()
	want := []bool{true, false, true}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("captured position %d = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestRacyChainRacesThrough demonstrates why the paper's raceless
// two-latch design exists: a single-latch chain on one clock flushes
// data through multiple stages per pulse, while the SRL chain moves
// exactly one position per A/B cycle.
func TestRacyChainRacesThrough(t *testing.T) {
	rc := NewRacyChain(5)
	rc.ClockPulse(true, 3) // one "slow" clock pulse, 3 gate delays
	st := rc.State()
	flushed := 0
	for _, b := range st {
		if b {
			flushed++
		}
	}
	if flushed < 2 {
		t.Fatalf("racy chain should flush through multiple stages, got state %v", st)
	}
	// The SRL chain, by contrast, advances exactly one position.
	ch := NewChain(5)
	ch.Shift(true)
	good := ch.State()
	moved := 0
	for _, b := range good {
		if b {
			moved++
		}
	}
	if moved != 1 || !good[0] {
		t.Fatalf("SRL chain moved %d positions: %v", moved, good)
	}
}

func TestInsertPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		orig := circuits.Counter(4)
		scanned, p := Insert(orig, style)
		if vs := CheckRules(scanned, p); len(vs) != 0 {
			t.Fatalf("style %d: rule violations: %v", style, vs)
		}
		mo := fault.NewMachine(orig, nil)
		ms := fault.NewMachine(scanned, nil)
		for cyc := 0; cyc < 40; cyc++ {
			in := []bool{rng.Intn(2) == 1}
			sIn := append(append([]bool{}, in...), false, false) // SE=0, SI=0
			oOut := mo.Step(in)
			sOut := ms.Step(sIn)
			for i := range oOut {
				if oOut[i] != sOut[i] {
					t.Fatalf("style %d cycle %d: output %d differs", style, cyc, i)
				}
			}
		}
	}
}

func TestScanInReachesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		d := NewDesign(circuits.Counter(5), style)
		vals := make([]bool, d.ChainLength())
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
		}
		d.ScanIn(vals)
		got := d.ChainState()
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("style %d: chain position %d = %v, want %v (chain %v)", style, i, got[i], vals[i], got)
			}
		}
	}
}

func TestScanOutMatchesCapturedState(t *testing.T) {
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		orig := circuits.Counter(4)
		d := NewDesign(orig, style)
		// Load 0101, enable counting for one cycle: counter increments.
		st := []bool{true, false, true, false} // Q=5
		resp := d.RunTest(ScanTest{State: st, PI: []bool{true}})
		// Next state of counter at 5 with EN=1 is 6 = 0110.
		want := []bool{false, true, true, false}
		for i := range want {
			if resp.Captured[i] != want[i] {
				t.Fatalf("style %d: captured %v, want %v", style, resp.Captured, want)
			}
		}
	}
}

// TestEndToEndScanDetectsFaults is the central LSSD payoff: tests
// generated by combinational ATPG under the full-scan view, applied
// serially through the actual scan hardware, distinguish the good
// machine from faulty machines.
func TestEndToEndScanDetectsFaults(t *testing.T) {
	orig := circuits.Counter(4)
	view := atpg.FullScanView(orig)
	u := fault.Universe(orig)
	cl := fault.CollapseEquiv(orig, u)

	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		good := NewDesign(orig, style)
		checked := 0
		for _, f := range cl.Reps {
			if orig.Gates[f.Gate].Type == logic.DFF {
				continue // DFF-pin faults change identity under insertion
			}
			cube, err := atpg.Podem(orig, view, f, atpg.PodemConfig{})
			if err != nil {
				t.Fatalf("style %d: podem on %s: %v", style, f.Name(orig), err)
			}
			full := cube.Bools()
			st := ScanTest{
				PI:    full[:len(orig.PIs)],
				State: full[len(orig.PIs):],
			}
			good.Reset()
			wantResp := good.RunTest(st)
			bad := NewDesign(orig, style)
			bad.InjectFault(f)
			gotResp := bad.RunTest(st)
			differs := false
			for i := range wantResp.PO {
				if wantResp.PO[i] != gotResp.PO[i] {
					differs = true
				}
			}
			for i := range wantResp.Captured {
				if wantResp.Captured[i] != gotResp.Captured[i] {
					differs = true
				}
			}
			if !differs {
				t.Fatalf("style %d: fault %s not detected through scan hardware (test %v)",
					style, f.Name(orig), st)
			}
			checked++
		}
		if checked < 20 {
			t.Fatalf("style %d: only %d faults checked", style, checked)
		}
	}
}

func TestOverheadBands(t *testing.T) {
	// LSSD costs more than mux-scan (the extra L2 latch), and both land
	// in a plausible band for a register-heavy design.
	orig := circuits.SequencedALU(8)
	lssdC, _ := Insert(orig, StyleLSSD)
	muxC, _ := Insert(orig, StyleMuxScan)
	ovL := Overhead(orig, lssdC)
	ovM := Overhead(orig, muxC)
	if ovL <= ovM {
		t.Fatalf("LSSD overhead %.3f should exceed mux-scan %.3f", ovL, ovM)
	}
	if ovM <= 0 || ovL > 1.5 {
		t.Fatalf("overheads out of band: lssd %.3f, mux %.3f", ovL, ovM)
	}
	if PinOverhead() != 3 {
		t.Fatal("pin overhead should be 3 in the single-clock model")
	}
}

func TestTestCyclesFormula(t *testing.T) {
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		d := NewDesign(circuits.Counter(6), style)
		d.Reset()
		d.RunTest(ScanTest{State: make([]bool, 6), PI: []bool{false}})
		if got, want := d.Cycles, d.TestCycles(1); got != want {
			t.Fatalf("style %d: measured %d cycles, formula says %d", style, got, want)
		}
	}
}

func TestInsertRejectsCombinational(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert should panic on combinational circuit")
		}
	}()
	Insert(circuits.C17(), StyleLSSD)
}

func TestSequentialVsScanATPGCoverage(t *testing.T) {
	// The motivating comparison: random sequences against the unscanned
	// counter versus combinational ATPG under the scan view. The high
	// counter bits toggle once per 2^9 cycles, far beyond the 200-cycle
	// budget, so sequential simulation cannot reach them — while under
	// scan every fault is one frame away.
	orig := circuits.Counter(10)
	u := fault.Universe(orig)
	cl := fault.CollapseEquiv(orig, u)

	// Sequential: 200 random cycles.
	rng := rand.New(rand.NewSource(8))
	seq := make([][]bool, 200)
	for i := range seq {
		seq[i] = []bool{rng.Intn(2) == 1}
	}
	seqRes := fault.SimulateSequence(orig, cl.Reps, seq)

	// Scan: deterministic ATPG, every fault one frame away.
	scanRes := atpg.Generate(orig, atpg.FullScanView(orig), cl.Reps,
		atpg.Config{Engine: atpg.EnginePodem})
	if scanRes.Coverage < 1.0 {
		t.Fatalf("scan ATPG coverage %.3f, want 1.0", scanRes.Coverage)
	}
	if seqRes.Coverage() >= scanRes.Coverage {
		t.Fatalf("sequential random coverage %.3f should trail scan coverage %.3f",
			seqRes.Coverage(), scanRes.Coverage)
	}
}
