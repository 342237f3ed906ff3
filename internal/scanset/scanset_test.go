package scanset

import (
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
)

func TestSampleSnapshotsRunningMachine(t *testing.T) {
	c := circuits.Counter(4)
	m := fault.NewMachine(c, nil)
	taps := append([]int(nil), c.DFFs...)
	ss := New(m, taps, nil)

	// Run 5 counting cycles, snapshot, verify it matches the counter
	// value, then keep running: the snapshot must not disturb state.
	for i := 0; i < 5; i++ {
		m.Step([]bool{true})
	}
	snap := ss.Snapshot()
	var got uint
	for i, b := range snap {
		if b {
			got |= 1 << uint(i)
		}
	}
	if got != 5 {
		t.Fatalf("snapshot = %d, want 5", got)
	}
	m.Step([]bool{true})
	if st := m.State(); !st[1] || st[0] {
		t.Fatalf("machine disturbed by snapshot: %v", st)
	}
	if ss.ShiftOps != len(taps) {
		t.Fatalf("shift ops = %d, want %d", ss.ShiftOps, len(taps))
	}
}

func TestSampleInternalNets(t *testing.T) {
	// Scan/Set can sample arbitrary nets, not just latches.
	c := circuits.Counter(3)
	m := fault.NewMachine(c, nil)
	t1, _ := c.NetByName("T1")
	ca0, _ := c.NetByName("CA0")
	ss := New(m, []int{t1, ca0}, nil)
	m.Step([]bool{true}) // counter = 1
	m.Apply([]bool{true})
	snap := ss.Snapshot()
	// Q0=1, EN=1: CA0 = EN AND Q0 = 1; T1 = Q1 XOR CA0 = 1.
	if !snap[0] || !snap[1] {
		t.Fatalf("internal samples %v, want [true true]", snap)
	}
}

func TestSetFunctionLoadsLatches(t *testing.T) {
	c := circuits.Counter(4)
	m := fault.NewMachine(c, nil)
	ss := New(m, c.DFFs, c.DFFs)
	ss.Set([]bool{true, false, true, false}) // load 5
	m.Step([]bool{true})
	var got uint
	for i, b := range m.State() {
		if b {
			got |= 1 << uint(i)
		}
	}
	if got != 6 {
		t.Fatalf("after set(5)+count: %d, want 6", got)
	}
}

func TestMaxBitsEnforced(t *testing.T) {
	c := circuits.Counter(4)
	m := fault.NewMachine(c, nil)
	taps := make([]int, 65)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 65 taps")
		}
	}()
	New(m, taps, nil)
}

func TestSetPointValidation(t *testing.T) {
	c := circuits.Counter(4)
	m := fault.NewMachine(c, nil)
	en, _ := c.NetByName("EN")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-DFF set point")
		}
	}()
	New(m, nil, []int{en})
}

// TestPartialScanCoverageBand quantifies the paper's caveat: "if all
// the latches ... are not both scanned and set, then the test
// generation function is not necessarily reduced to a total
// combinational test generation function". Partial Scan/Set coverage
// sits between primary-pins-only and full scan.
func TestPartialScanCoverageBand(t *testing.T) {
	c := circuits.Counter(8)
	u := fault.Universe(c)
	cl := fault.CollapseEquiv(c, u)

	gen := func(view atpg.View) float64 {
		res := atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, MaxBacktracks: 2000})
		return res.RawCover
	}
	primary := gen(atpg.PrimaryView(c))
	partial := gen(atpg.PartialScanView(c, c.DFFs[:4]))
	full := gen(atpg.FullScanView(c))
	if full != 1.0 {
		t.Fatalf("full scan coverage %.3f", full)
	}
	if !(primary < partial && partial < full) {
		t.Fatalf("coverage ordering violated: primary %.3f, partial %.3f, full %.3f",
			primary, partial, full)
	}
	p := New(fault.NewMachine(c, nil), c.DFFs[:4], c.DFFs[:4]).Profile()
	if p.SetDFFs != 4 || p.TotalDFFs != 8 {
		t.Fatalf("profile %v", p)
	}
}

func TestMachineAccessor(t *testing.T) {
	c := circuits.Counter(3)
	m := fault.NewMachine(c, nil)
	ss := New(m, c.DFFs, nil)
	if ss.Machine() != m {
		t.Fatal("Machine accessor broken")
	}
}
