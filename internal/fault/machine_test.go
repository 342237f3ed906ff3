package fault

import (
	"testing"

	"dft/internal/logic"
)

func mustParse(t *testing.T, name, src string) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseBenchString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

const toggleBench = `
INPUT(en)
OUTPUT(q)
q = DFF(n)
n = XOR(en, q)
`

func TestMachineToggle(t *testing.T) {
	c := mustParse(t, "toggle", toggleBench)
	m := NewMachine(c, nil)
	// en=1: q toggles every cycle starting from 0.
	want := []bool{false, true, false, true, false}
	for i, w := range want {
		out := m.Step([]bool{true})
		if out[0] != w {
			t.Fatalf("cycle %d: q=%v, want %v", i, out[0], w)
		}
	}
	// en=0: q holds.
	q := m.State()[0]
	for i := 0; i < 3; i++ {
		out := m.Step([]bool{false})
		if out[0] != q {
			t.Fatalf("hold cycle %d: q=%v, want %v", i, out[0], q)
		}
	}
}

func TestMachineSetStateAndPeek(t *testing.T) {
	c := mustParse(t, "toggle", toggleBench)
	m := NewMachine(c, nil)
	m.SetState([]bool{true})
	if got := m.State()[0]; !got {
		t.Fatal("SetState did not stick")
	}
	m.Apply([]bool{false})
	n, _ := c.NetByName("n")
	if m.Peek(n) != true { // XOR(0, 1)
		t.Error("Peek(n) wrong after Apply")
	}
	vals := m.Values()
	if vals[n] != true {
		t.Error("Values()[n] inconsistent with Peek")
	}
}

func TestMachineRun(t *testing.T) {
	c := mustParse(t, "toggle", toggleBench)
	m := NewMachine(c, nil)
	resp := m.Run([][]bool{{true}, {true}, {true}})
	if resp[0][0] != false || resp[1][0] != true || resp[2][0] != false {
		t.Fatalf("Run response %v", resp)
	}
}

// A 3-bit LFSR as a sequential circuit: validates multi-DFF clocking
// against the closed-form sequence.
const lfsr3Bench = `
INPUT(si)
OUTPUT(q3)
q1 = DFF(fb)
q2 = DFF(q1)
q3 = DFF(q2)
fb = XOR(q2, q3)
`

func TestMachineLFSR3(t *testing.T) {
	c := mustParse(t, "lfsr3", lfsr3Bench)
	m := NewMachine(c, nil)
	m.SetState([]bool{true, false, false}) // q1=1, q2=0, q3=0
	// Reference: q1' = q2^q3, q2' = q1, q3' = q2.
	q1, q2, q3 := true, false, false
	for cyc := 0; cyc < 20; cyc++ {
		m.Step([]bool{false})
		q1, q2, q3 = q2 != q3, q1, q2
		s := m.State()
		if s[0] != q1 || s[1] != q2 || s[2] != q3 {
			t.Fatalf("cycle %d: state %v, want [%v %v %v]", cyc, s, q1, q2, q3)
		}
	}
}

func TestMachineCircuitAccessor(t *testing.T) {
	c := mustParse(t, "toggle", toggleBench)
	m := NewMachine(c, nil)
	if m.Circuit() != c {
		t.Fatal("Circuit accessor broken")
	}
	// Peek/Values on a fresh (dirty) machine must re-evaluate.
	n, _ := c.NetByName("n")
	_ = m.Peek(n)
	_ = m.Values()
}
