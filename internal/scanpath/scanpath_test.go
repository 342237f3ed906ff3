package scanpath

import (
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/sim"
)

func TestRacelessDFFPorts(t *testing.T) {
	var f RacelessDFF
	f.SystemClockPulse(true)
	if !f.Output() {
		t.Fatal("system data did not reach output")
	}
	f.ScanClockPulse(false)
	if f.Output() {
		t.Fatal("scan data did not reach output")
	}
}

func TestRaceMargin(t *testing.T) {
	if !Raceless(2.0, 1.0) {
		t.Error("feedback slower than inverter window must be safe")
	}
	if Raceless(0.5, 1.0) {
		t.Error("fast feedback inside the overlap window must be flagged")
	}
	if RaceMargin(3, 1) != 2 {
		t.Error("margin arithmetic")
	}
}

func TestChipShiftOrder(t *testing.T) {
	ch := NewChip("u1", 3)
	// Shift in 1,0,1: first bit ends deepest.
	ch.shift(true)
	ch.shift(false)
	ch.shift(true)
	st := ch.State()
	want := []bool{true, false, true}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("state %v, want %v", st, want)
		}
	}
}

func TestCardSelection(t *testing.T) {
	a := NewCard("A", NewChip("a1", 2))
	b := NewCard("B", NewChip("b1", 2))
	sub := &Subsystem{Cards: []*Card{a, b}}
	if err := sub.Select("A"); err != nil {
		t.Fatal(err)
	}
	// Shifting affects only card A.
	sub.Shift(true)
	sub.Shift(true)
	if st := a.Chips[0].State(); !st[0] || !st[1] {
		t.Fatalf("selected card did not shift: %v", st)
	}
	if st := b.Chips[0].State(); st[0] || st[1] {
		t.Fatalf("deselected card shifted: %v", st)
	}
	// Shared output reads the selected card; deselected outputs are
	// blocked to the noncontrolling value.
	if !sub.SharedOutput() {
		t.Fatal("shared output should read card A's 1")
	}
	if err := sub.Select("B"); err != nil {
		t.Fatal(err)
	}
	if sub.SharedOutput() {
		t.Fatal("card B holds zeros; shared output must be 0")
	}
	if err := sub.Select("nope"); err == nil {
		t.Fatal("selecting a missing card must error")
	}
}

func TestBacktracePartitions(t *testing.T) {
	c := circuits.Counter(4)
	parts := Backtrace(c)
	// One partition per DFF plus one per PO (POs here are the DFF
	// outputs themselves, giving empty cones bounded by the DFF).
	if len(parts) != 8 {
		t.Fatalf("got %d partitions, want 8", len(parts))
	}
	for _, p := range parts {
		for _, in := range p.Inputs {
			if c.Gates[in].Type.IsCombinational() {
				t.Fatalf("partition input %s is combinational", c.NameOf(in))
			}
		}
	}
	if LargestPartition(parts) == 0 {
		t.Fatal("expected a nonempty cone")
	}
}

func TestBacktracePartitionGateCounts(t *testing.T) {
	// In the counter, the cone of DFF i contains the XOR plus the AND
	// chain below it: sizes grow with bit index.
	c := circuits.Counter(5)
	parts := Backtrace(c)
	sizes := map[int]int{}
	for _, p := range parts {
		sizes[p.Size()]++
	}
	if LargestPartition(parts) < 4 {
		t.Fatalf("largest cone %d unexpectedly small", LargestPartition(parts))
	}
}

func TestInsertBlockingFFCutsCone(t *testing.T) {
	c := circuits.RippleAdder(8)
	// The adder is combinational: partitions root at POs only.
	before := LargestPartition(Backtrace(c))
	// Cut at the middle carry net.
	mid, ok := c.NetByName("C4")
	if !ok {
		t.Fatal("C4 missing")
	}
	cut := InsertBlockingFF(c, mid)
	after := LargestPartition(Backtrace(cut))
	if after >= before {
		t.Fatalf("blocking FF did not shrink largest cone: %d -> %d", before, after)
	}
	if cut.NumDFFs() != 1 {
		t.Fatalf("dffs = %d", cut.NumDFFs())
	}
}

func TestCapPartitions(t *testing.T) {
	c := circuits.RippleAdder(16)
	before := LargestPartition(Backtrace(c))
	capped, added := CapPartitions(c, before/3)
	after := LargestPartition(Backtrace(capped))
	if added == 0 {
		t.Fatal("no flip-flops inserted")
	}
	if after >= before {
		t.Fatalf("capping failed: %d -> %d with %d FFs", before, after, added)
	}
}

func TestInsertBlockingFFPipelinesNet(t *testing.T) {
	// The inserted FF delays the cut net by one cycle: the modified
	// adder computes the same sum once the pipeline fills and inputs
	// are held stable.
	c := circuits.RippleAdder(4)
	mid, _ := c.NetByName("C2")
	cut := InsertBlockingFF(c, mid)
	m := fault.NewMachine(cut, nil)
	in := []bool{true, true, false, true, true, false, true, false, false} // A=1011? packed A,B,CIN
	m.Step(in)
	out := m.Apply(in)
	// Reference from the original combinational adder.
	ref := sim.Eval(c, in, nil)
	for i, po := range c.POs {
		if out[i] != ref[po] {
			t.Fatalf("pipelined adder output %d differs after fill", i)
		}
	}
}
