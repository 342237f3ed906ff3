package core

import (
	"strings"
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/compact"
)

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

func TestLoadAndGenerateCombinational(t *testing.T) {
	d, err := LoadString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	sum, hardest := d.Analyze(3)
	if sum.MaxCO <= 0 || len(hardest) != 3 {
		t.Fatalf("analysis: %v / %d rows", sum, len(hardest))
	}
	ts := d.Generate(GenerateOptions{Engine: atpg.EnginePodem})
	if ts.Coverage < 1.0 || ts.Aborted != 0 {
		t.Fatalf("coverage %.3f, %d aborted", ts.Coverage, ts.Aborted)
	}
	rep := d.BuildReport(ts)
	s := rep.String()
	if !strings.Contains(s, "c17") || !strings.Contains(s, "100.00%") {
		t.Fatalf("report:\n%s", s)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadString("bad", "INPUT(a)\ny = FROB(a)\nOUTPUT(y)"); err == nil {
		t.Fatal("bad bench accepted")
	}
}

func TestSequentialFlowNoScanVsScan(t *testing.T) {
	c := circuits.Counter(8)
	noScan := FromCircuit(c)
	ts0 := noScan.Generate(GenerateOptions{Engine: atpg.EnginePodem, MaxBacktracks: 500})

	scanned := FromCircuit(c)
	if err := scanned.ApplyScan(StyleLSSD); err != nil {
		t.Fatal(err)
	}
	ts1 := scanned.Generate(GenerateOptions{Engine: atpg.EnginePodem})
	if ts1.RawCover != 1.0 {
		t.Fatalf("scan coverage %.3f", ts1.RawCover)
	}
	if ts0.RawCover >= ts1.RawCover {
		t.Fatalf("no-scan coverage %.3f should trail scan %.3f", ts0.RawCover, ts1.RawCover)
	}
	rep := scanned.BuildReport(ts1)
	if rep.OverheadPct <= 0 || rep.TesterCycles <= 0 {
		t.Fatalf("scan report missing economics: %+v", rep)
	}
	if !strings.Contains(rep.String(), "scan") {
		t.Fatal("report missing scan block")
	}
}

func TestApplyScanStyles(t *testing.T) {
	c := circuits.Counter(4)
	d := FromCircuit(c)
	for _, s := range []Style{StyleLSSD, StyleMuxScan, StyleNone} {
		if err := d.ApplyScan(s); err != nil {
			t.Fatalf("style %v: %v", s, err)
		}
		if s == StyleNone && d.Scan() != nil {
			t.Fatal("StyleNone should clear the scan design")
		}
		if s != StyleNone && d.Scan() == nil {
			t.Fatalf("style %v did not build scan", s)
		}
	}
	if StyleLSSD.String() != "lssd" || StyleNone.String() != "none" {
		t.Fatal("style names")
	}
}

func TestRandomTestsAndFaultGrade(t *testing.T) {
	d := FromCircuit(circuits.RippleAdder(6))
	ts := d.RandomTests(1500, 3)
	if ts.Coverage < 0.9 {
		t.Fatalf("random coverage %.3f", ts.Coverage)
	}
	if got := d.FaultGrade(ts.Patterns); got < ts.Coverage-1e-9 {
		t.Fatalf("fault grade %.3f below generation coverage %.3f", got, ts.Coverage)
	}
}

func TestGenerateCompaction(t *testing.T) {
	d := FromCircuit(circuits.RippleAdder(5))
	full := d.Generate(GenerateOptions{Engine: atpg.EnginePodem, RandomFirst: 256, Seed: 1})
	small := d.Generate(GenerateOptions{Engine: atpg.EnginePodem, RandomFirst: 256, Seed: 1, CompactMode: compact.ModeReverse})
	if len(small.Patterns) > len(full.Patterns) {
		t.Fatalf("compaction grew set: %d -> %d", len(full.Patterns), len(small.Patterns))
	}
	if got := d.FaultGrade(small.Patterns); got < full.RawCover {
		t.Fatalf("compacted grade %.3f below %.3f", got, full.RawCover)
	}
}

func TestSelfTestPlan(t *testing.T) {
	cs, err := SelfTestPlan(circuits.RippleAdder(3), circuits.ParityTree(8), 300)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Coverage() < 0.9 {
		t.Fatalf("self-test coverage %.3f", cs.Coverage())
	}
	if _, err := SelfTestPlan(circuits.RippleAdder(40), circuits.ParityTree(8), 10); err == nil {
		t.Fatal("oversized plan accepted")
	}
}

func TestDalgEngineThroughFacade(t *testing.T) {
	d, _ := LoadString("c17", c17Bench)
	ts := d.Generate(GenerateOptions{Engine: atpg.EngineDAlg})
	if ts.Coverage < 1.0 {
		t.Fatalf("dalg coverage %.3f", ts.Coverage)
	}
}
