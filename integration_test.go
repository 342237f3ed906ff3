package dft

// Integration tests: the complete flows a downstream adopter runs,
// crossing every package boundary — netlist I/O, testability analysis,
// scan insertion, ATPG, gate-level scan application, self-test, and
// diagnosis — on one design each.

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dft/internal/atpg"
	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/scanset"
	"dft/internal/testability"
)

// TestIntegrationFullScanFlow drives a sequential design from .bench
// text to a verified, hardware-applied scan test set:
//
//	parse → SCOAP → scan-select → LSSD insert → chain flush →
//	combinational ATPG → compaction → scan application on good and
//	fault-injected machines → coverage and economics report.
func TestIntegrationFullScanFlow(t *testing.T) {
	// 1. Serialize a library design through the interchange format and
	//    load it back (the adopter's entry point).
	src := logic.BenchString(circuits.GrayCounter(6))
	d, err := core.LoadString("gray6", src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	c := d.Circuit

	// 2. Testability analysis finds sequential depth worth scanning.
	m := testability.Analyze(c)
	if m.Summarize().MaxSD == 0 {
		t.Fatal("a counter must show sequential depth")
	}
	// Partial-scan selection at full budget must cover all FFs.
	if got := scanset.SelectPartialScan(c, c.NumDFFs()); len(got) != c.NumDFFs() {
		t.Fatalf("selection returned %d of %d", len(got), c.NumDFFs())
	}

	// 3. Scan insertion + chain integrity before trusting any test.
	design := lssd.NewDesign(c, lssd.StyleLSSD)
	if !design.FlushTest().Pass {
		t.Fatal("flush test failed on healthy hardware")
	}

	// 4. Combinational ATPG under the full-scan view, compacted.
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.FullScanView(c)
	gen := atpg.Generate(c, view, cl.Reps, atpg.Config{
		Engine: atpg.EnginePodem, RandomFirst: 64, RandomSeed: 9,
	})
	if gen.RawCover < 1.0 {
		t.Fatalf("scan ATPG coverage %.3f", gen.RawCover)
	}
	patterns, cst, err := compact.Patterns(context.Background(), c, view, cl.Reps, gen.Patterns,
		compact.Options{Mode: compact.ModeReverse})
	if err != nil {
		t.Fatal(err)
	}
	if cst.PatternsOut > cst.PatternsIn {
		t.Fatalf("compaction grew the set: %+v", cst)
	}
	if got := mustFaultSim(t, c, cl.Reps, patterns, fault.Options{Backend: fault.BackendParallel, View: view}); got.Coverage() < 1.0 {
		t.Fatalf("compacted coverage %.3f", got.Coverage())
	}

	// 5. Apply every test through the actual scan chain against good
	//    and fault-injected machines; every combinational fault checked
	//    must be caught by at least one test.
	type resp struct{ po, cap string }
	encode := func(r lssd.TestResponse) resp {
		var b strings.Builder
		for _, v := range r.PO {
			if v {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		po := b.String()
		b.Reset()
		for _, v := range r.Captured {
			if v {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return resp{po, b.String()}
	}
	tests := make([]lssd.ScanTest, len(patterns))
	golden := make([]resp, len(patterns))
	for i, p := range patterns {
		tests[i] = lssd.ScanTest{PI: p[:len(c.PIs)], State: p[len(c.PIs):]}
		design.Reset()
		golden[i] = encode(design.RunTest(tests[i]))
	}
	checked := 0
	for _, f := range cl.Reps {
		if !c.Gates[f.Gate].Type.IsCombinational() {
			continue
		}
		if checked >= 12 {
			break
		}
		checked++
		faulty := lssd.NewDesign(c, lssd.StyleLSSD)
		faulty.InjectFault(f)
		caught := false
		for i := range tests {
			faulty.Reset()
			faulty.InjectFault(f)
			if encode(faulty.RunTest(tests[i])) != golden[i] {
				caught = true
				break
			}
		}
		if !caught {
			t.Fatalf("fault %s escaped the applied scan test set", f.Name(c))
		}
	}
	if checked == 0 {
		t.Fatal("no combinational faults checked")
	}

	// 6. The facade's economics report agrees with the pieces.
	if err := d.ApplyScan(core.StyleLSSD); err != nil {
		t.Fatal(err)
	}
	ts := d.Generate(core.GenerateOptions{Engine: atpg.EnginePodem, RandomFirst: 64, Seed: 9})
	rep := d.BuildReport(ts)
	if rep.Coverage < 1.0 || rep.OverheadPct <= 0 || rep.TesterCycles <= 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

// TestIntegrationBISTAndDiagnosis couples the self-test and fault-
// location flows: a BILBO session flags a defective combinational
// block, then a dictionary narrows the defect at the pins.
func TestIntegrationBISTAndDiagnosis(t *testing.T) {
	c1 := circuits.RippleAdder(3)
	c2 := circuits.ParityTree(8)
	st := bilbo.NewSelfTest(c1, c2, 8, 8, 255)
	g1, g2 := st.GoodSignatures()

	// Pick a random defect in the adder.
	u := fault.Universe(c1)
	rng := rand.New(rand.NewSource(11))
	truth := u[rng.Intn(len(u))]
	b1, b2 := st.SessionSignatures(1, &truth)
	if b1 == g1 && b2 == g2 {
		t.Skipf("fault %s aliased in the MISR (2^-8 chance)", truth.Name(c1))
	}

	// The board comes back for diagnosis: build a dictionary from a
	// deterministic test set and locate the defect.
	cl := fault.CollapseEquiv(c1, fault.Universe(c1))
	gen := atpg.Generate(c1, atpg.PrimaryView(c1), cl.Reps,
		atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 64, RandomSeed: 3})
	dict, err := diagnose.Build(context.Background(), c1, u, gen.Patterns, diagnose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands := dict.Diagnose(truth)
	found := false
	for _, f := range cands {
		if f == truth {
			found = true
		}
	}
	if !found {
		t.Fatalf("true fault %s not among %d candidates", truth.Name(c1), len(cands))
	}
	if len(cands) > 8 {
		t.Fatalf("diagnosis too coarse: %d candidates", len(cands))
	}
}

// TestIntegrationBenchRoundTripAllGenerators pushes every library
// generator through the interchange format and re-finalizes.
func TestIntegrationBenchRoundTripAllGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(6),
		circuits.ArrayMultiplier(4),
		circuits.ParityTree(9),
		circuits.Decoder(3),
		circuits.Mux(3),
		circuits.Comparator(4),
		circuits.Majority(5),
		circuits.ALU74181(),
		circuits.Cascade74181(2),
		circuits.Counter(6),
		circuits.ShiftRegister(5),
		circuits.JohnsonCounter(4),
		circuits.GrayCounter(5),
		circuits.FSM(),
		circuits.SequencedALU(4),
		circuits.RandomCircuit(rng, 10, 80, 5, 4),
		circuits.RandomPLA(rng, 12, 5, 3, 10),
	}
	for _, c := range cases {
		back, err := logic.ParseBenchString(c.Name, logic.BenchString(c))
		if err != nil {
			t.Fatalf("%s: reparse: %v", c.Name, err)
		}
		if back.NumGates() != c.NumGates() || back.NumDFFs() != c.NumDFFs() ||
			len(back.PIs) != len(c.PIs) || len(back.POs) != len(c.POs) {
			t.Fatalf("%s: structure changed across the interchange format", c.Name)
		}
	}
}
