package circuits

import (
	"math/rand"
	"strings"
	"testing"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

// evalPacked drives a combinational circuit with inputs taken from the
// bits of x in PI declaration order and returns outputs packed the same
// way.
func evalPacked(c *logic.Circuit, x uint64) uint64 {
	in := make([]bool, len(c.PIs))
	for i := range in {
		in[i] = x>>uint(i)&1 == 1
	}
	vals := sim.Eval(c, in, nil)
	var out uint64
	for i, id := range c.POs {
		if vals[id] {
			out |= 1 << uint(i)
		}
	}
	return out
}

func TestC17Structure(t *testing.T) {
	c := C17()
	s := c.Stats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 6 {
		t.Fatalf("c17 stats %v", s)
	}
}

func TestRippleAdderExhaustiveSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		c := RippleAdder(n)
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				for cin := uint64(0); cin < 2; cin++ {
					in := a | b<<uint(n) | cin<<uint(2*n)
					got := evalPacked(c, in)
					want := a + b + cin // bits 0..n = sum and carry
					if got != want {
						t.Fatalf("adder%d: %d+%d+%d = %d, want %d", n, a, b, cin, got, want)
					}
				}
			}
		}
	}
}

func TestRippleAdderRandomLarge(t *testing.T) {
	n := 16
	c := RippleAdder(n)
	rng := rand.New(rand.NewSource(7))
	mask := uint64(1)<<uint(n) - 1
	for i := 0; i < 200; i++ {
		a := rng.Uint64() & mask
		b := rng.Uint64() & mask
		cin := rng.Uint64() & 1
		got := evalPacked(c, a|b<<uint(n)|cin<<uint(2*n))
		if want := a + b + cin; got != want {
			t.Fatalf("adder16: %d+%d+%d = %d, want %d", a, b, cin, got, want)
		}
	}
}

func TestArrayMultiplier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		c := ArrayMultiplier(n)
		if len(c.POs) != 2*n {
			t.Fatalf("mult%d has %d outputs, want %d", n, len(c.POs), 2*n)
		}
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				got := evalPacked(c, a|b<<uint(n))
				if want := a * b; got != want {
					t.Fatalf("mult%d: %d*%d = %d, want %d", n, a, b, got, want)
				}
			}
		}
	}
}

func TestArrayMultiplierRandom6(t *testing.T) {
	n := 6
	c := ArrayMultiplier(n)
	rng := rand.New(rand.NewSource(9))
	mask := uint64(1)<<uint(n) - 1
	for i := 0; i < 300; i++ {
		a, b := rng.Uint64()&mask, rng.Uint64()&mask
		if got := evalPacked(c, a|b<<uint(n)); got != a*b {
			t.Fatalf("mult6: %d*%d = %d, want %d", a, b, got, a*b)
		}
	}
}

func TestParityTree(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 13} {
		c := ParityTree(n)
		for x := uint64(0); x < 1<<uint(min(n, 10)); x++ {
			got := evalPacked(c, x)
			want := uint64(0)
			for i := 0; i < n; i++ {
				want ^= x >> uint(i) & 1
			}
			if got != want {
				t.Fatalf("parity%d(%b) = %d, want %d", n, x, got, want)
			}
		}
	}
}

func TestDecoder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		c := Decoder(n)
		if len(c.POs) != 1<<uint(n) {
			t.Fatalf("dec%d output count %d", n, len(c.POs))
		}
		for x := uint64(0); x < 1<<uint(n); x++ {
			got := evalPacked(c, x)
			if want := uint64(1) << x; got != want {
				t.Fatalf("dec%d(%d) = %b, want %b", n, x, got, want)
			}
		}
	}
}

func TestMux(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		c := Mux(k)
		nd := 1 << uint(k)
		for d := uint64(0); d < 1<<uint(nd); d++ {
			for s := uint64(0); s < uint64(nd); s++ {
				got := evalPacked(c, d|s<<uint(nd))
				if want := d >> s & 1; got != want {
					t.Fatalf("mux%d(d=%b,s=%d) = %d, want %d", nd, d, s, got, want)
				}
			}
		}
	}
}

func TestComparator(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		c := Comparator(n)
		for a := uint64(0); a < 1<<uint(n); a++ {
			for b := uint64(0); b < 1<<uint(n); b++ {
				got := evalPacked(c, a|b<<uint(n))
				eq, gt := got&1, got>>1&1
				if (a == b) != (eq == 1) || (a > b) != (gt == 1) {
					t.Fatalf("cmp%d(%d,%d) eq=%d gt=%d", n, a, b, eq, gt)
				}
			}
		}
	}
}

func TestMajority(t *testing.T) {
	for _, n := range []int{3, 5} {
		c := Majority(n)
		for x := uint64(0); x < 1<<uint(n); x++ {
			ones := 0
			for i := 0; i < n; i++ {
				ones += int(x >> uint(i) & 1)
			}
			got := evalPacked(c, x)
			if want := ones > n/2; (got == 1) != want {
				t.Fatalf("maj%d(%b) = %d, want %v", n, x, got, want)
			}
		}
	}
}

func TestALU74181AgainstReference(t *testing.T) {
	c := ALU74181()
	// Inputs in declaration order: A0..3, B0..3, S0..3, M, CN.
	for x := uint64(0); x < 1<<14; x++ {
		a := uint(x) & 0xF
		b := uint(x>>4) & 0xF
		s := uint(x>>8) & 0xF
		m := x>>12&1 == 1
		cn := x>>13&1 == 1
		got := evalPacked(c, x)
		f, aeqb, pbar, gbar, cn4 := ALU74181Ref(a, b, s, m, cn)
		want := uint64(f)
		if aeqb {
			want |= 1 << 4
		}
		if pbar {
			want |= 1 << 5
		}
		if gbar {
			want |= 1 << 6
		}
		if cn4 {
			want |= 1 << 7
		}
		if got != want {
			t.Fatalf("74181(a=%x b=%x s=%x m=%v cn=%v): got %08b, want %08b", a, b, s, m, cn, got, want)
		}
	}
}

// TestALU74181FunctionTable spot-checks the published active-high
// function table, which validates the reference itself.
func TestALU74181FunctionTable(t *testing.T) {
	cases := []struct {
		s      uint
		m      bool
		cn     bool // active low: true = no carry
		name   string
		expect func(a, b uint) uint
	}{
		{0x0, true, true, "NOT A", func(a, b uint) uint { return ^a & 0xF }},
		{0x1, true, true, "NOR", func(a, b uint) uint { return ^(a | b) & 0xF }},
		{0x6, true, true, "XOR", func(a, b uint) uint { return (a ^ b) & 0xF }},
		{0x9, true, true, "XNOR", func(a, b uint) uint { return ^(a ^ b) & 0xF }},
		{0xA, true, true, "B", func(a, b uint) uint { return b }},
		{0xF, true, true, "A", func(a, b uint) uint { return a }},
		{0x9, false, true, "A plus B", func(a, b uint) uint { return (a + b) & 0xF }},
		{0x9, false, false, "A plus B plus 1", func(a, b uint) uint { return (a + b + 1) & 0xF }},
		{0x6, false, true, "A minus B minus 1", func(a, b uint) uint { return (a - b - 1) & 0xF }},
		{0x6, false, false, "A minus B", func(a, b uint) uint { return (a - b) & 0xF }},
		{0x0, false, true, "A", func(a, b uint) uint { return a }},
		{0x0, false, false, "A plus 1", func(a, b uint) uint { return (a + 1) & 0xF }},
		{0xC, false, true, "A plus A", func(a, b uint) uint { return (a + a) & 0xF }},
	}
	for _, cse := range cases {
		for a := uint(0); a < 16; a++ {
			for b := uint(0); b < 16; b++ {
				f, _, _, _, _ := ALU74181Ref(a, b, cse.s, cse.m, cse.cn)
				if want := cse.expect(a, b); f != want {
					t.Fatalf("%s (s=%x m=%v cn=%v) a=%x b=%x: f=%x, want %x",
						cse.name, cse.s, cse.m, cse.cn, a, b, f, want)
				}
			}
		}
	}
}

func TestALU74181SubtractComparator(t *testing.T) {
	// Classic usage: S=0110, M=0, CN=1 performs A minus B minus 1;
	// AEQB goes high exactly when A == B (F = all ones).
	for a := uint(0); a < 16; a++ {
		for b := uint(0); b < 16; b++ {
			_, aeqb, _, _, _ := ALU74181Ref(a, b, 0x6, false, true)
			if aeqb != (a == b) {
				t.Fatalf("AEQB(a=%x,b=%x) = %v", a, b, aeqb)
			}
		}
	}
}

func TestPLAStructure(t *testing.T) {
	// Two-input XOR as a PLA: terms a·b̄ and ā·b.
	c := PLA("xorpla", 2, []Cube{{1, -1}, {-1, 1}}, [][]int{{0, 1}})
	for x := uint64(0); x < 4; x++ {
		want := (x & 1) ^ (x >> 1 & 1)
		if got := evalPacked(c, x); got != want {
			t.Fatalf("xorpla(%b) = %d, want %d", x, got, want)
		}
	}
}

func TestRandomPLAShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := RandomPLA(rng, 20, 10, 4, 20)
	if c.MaxFanin() < 20 {
		t.Fatalf("random PLA max fanin %d, want >= 20", c.MaxFanin())
	}
	if len(c.POs) != 4 {
		t.Fatalf("outputs = %d", len(c.POs))
	}
}

func TestRandomCircuitWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ng := range []int{10, 100, 1000} {
		c := RandomCircuit(rng, 16, ng, 8, 4)
		if c.NumGates() != ng {
			t.Fatalf("gate count %d, want %d", c.NumGates(), ng)
		}
		if c.MaxFanin() > 4 {
			t.Fatalf("fanin %d exceeds bound", c.MaxFanin())
		}
		// Simulation must not panic and must be deterministic.
		in := make([]bool, len(c.PIs))
		v1 := sim.Eval(c, in, nil)
		v2 := sim.Eval(c, in, nil)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatal("nondeterministic simulation")
			}
		}
	}
}

func TestCounterCounts(t *testing.T) {
	c := Counter(4)
	m := fault.NewMachine(c, nil)
	for step := 1; step <= 20; step++ {
		m.Step([]bool{true})
		var got uint64
		for i, b := range m.State() {
			if b {
				got |= 1 << uint(i)
			}
		}
		if want := uint64(step) & 0xF; got != want {
			t.Fatalf("after %d clocks counter = %d, want %d", step, got, want)
		}
	}
	// Disabled: holds.
	before := m.State()
	m.Step([]bool{false})
	after := m.State()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("counter advanced while disabled")
		}
	}
}

func TestShiftRegisterDelaysInput(t *testing.T) {
	n := 5
	c := ShiftRegister(n)
	m := fault.NewMachine(c, nil)
	seq := []bool{true, false, true, true, false, false, true, false, true, true}
	var outs []bool
	for _, b := range seq {
		out := m.Step([]bool{b})
		outs = append(outs, out[0])
	}
	for i := n; i < len(seq); i++ {
		if outs[i] != seq[i-n] {
			t.Fatalf("output %d = %v, want delayed input %v", i, outs[i], seq[i-n])
		}
	}
}

func TestLFSRCircuitMatchesShiftRule(t *testing.T) {
	c := LFSRCircuit(3, []int{2, 3})
	m := fault.NewMachine(c, nil)
	m.SetState([]bool{true, false, false})
	q1, q2, q3 := true, false, false
	for i := 0; i < 14; i++ {
		m.Step(nil)
		q1, q2, q3 = q2 != q3, q1, q2
		s := m.State()
		if s[0] != q1 || s[1] != q2 || s[2] != q3 {
			t.Fatalf("step %d: %v vs (%v,%v,%v)", i, s, q1, q2, q3)
		}
	}
}

func TestFSMDetects101(t *testing.T) {
	c := FSM()
	m := fault.NewMachine(c, nil)
	seq := []bool{true, false, true, false, true, true, false, true}
	//              1     0     1*    0     1*    1     0     1*
	wantHit := []bool{false, false, true, false, true, false, false, true}
	for i, b := range seq {
		m.Step([]bool{b})
		hitNet, _ := c.NetByName("HIT")
		got := m.Peek(hitNet)
		if got != wantHit[i] {
			t.Fatalf("after char %d (%v): HIT=%v, want %v", i, b, got, wantHit[i])
		}
	}
}

func TestSequencedALUPipelines(t *testing.T) {
	n := 4
	c := SequencedALU(n)
	m := fault.NewMachine(c, nil)
	// Load operands, clock twice (input regs then output regs), read.
	in := make([]bool, 2*n+1)
	a, b := uint64(9), uint64(5)
	for i := 0; i < n; i++ {
		in[i] = a>>uint(i)&1 == 1
		in[n+i] = b>>uint(i)&1 == 1
	}
	m.Step(in)
	m.Step(in)
	var got uint64
	out := m.Apply(in)
	for i, v := range out {
		if v {
			got |= 1 << uint(i)
		}
	}
	if want := a + b; got != want {
		t.Fatalf("seqalu: %d+%d = %d, want %d", a, b, got, want)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBuiltinSizeCaps: a size past a generator's cap is refused before
// anything is built — 4,096 for every generator, 128 for the
// quadratic multiplier — so a dftd request cannot ask for a netlist of
// millions of gates.
func TestBuiltinSizeCaps(t *testing.T) {
	for _, name := range BuiltinNames() {
		limit := maxBuiltinSize
		if name == "mult" {
			limit = 128
		}
		if _, err := Builtin(name, limit+1); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("%s(%d): err = %v, want the %d cap", name, limit+1, err, limit)
		}
	}
	if _, err := Builtin("mult", 16); err != nil {
		t.Fatalf("mult(16): %v", err)
	}
}
