package circuits

import (
	"fmt"
	"testing"

	"dft/internal/fault"
	"dft/internal/sim"
)

// cascadeRef computes the cascaded ALU behaviorally by chaining the
// single-slice reference through the active-low carry.
func cascadeRef(n int, aIn, bIn uint64, s uint, m, cn bool) (f uint64, cn4 bool) {
	carry := cn
	for slice := 0; slice < n; slice++ {
		a4 := uint(aIn>>(4*uint(slice))) & 0xF
		b4 := uint(bIn>>(4*uint(slice))) & 0xF
		f4, _, _, _, c4 := ALU74181Ref(a4, b4, s, m, carry)
		f |= uint64(f4) << (4 * uint(slice))
		carry = c4
	}
	return f, carry
}

func TestCascade74181AgainstReference(t *testing.T) {
	n := 2 // 8-bit ALU
	c := Cascade74181(n)
	fOut := make([]int, 4*n)
	for i := range fOut {
		id, ok := c.NetByName(fmt.Sprintf("F%d", i))
		if !ok {
			t.Fatalf("F%d missing", i)
		}
		fOut[i] = id
	}
	cn4, _ := c.NetByName("CN4")
	for trial := 0; trial < 4000; trial++ {
		a := uint64(trial*2654435761) & 0xFF
		b := uint64(trial*40503+17) & 0xFF
		s := uint(trial>>3) & 0xF
		m := trial&1 == 1
		cn := trial&2 == 2
		in := make([]bool, len(c.PIs))
		for i := 0; i < 8; i++ {
			in[i] = a>>uint(i)&1 == 1
			in[8+i] = b>>uint(i)&1 == 1
		}
		for i := 0; i < 4; i++ {
			in[16+i] = s>>uint(i)&1 == 1
		}
		in[20] = m
		in[21] = cn
		vals := sim.Eval(c, in, nil)
		var got uint64
		for i, id := range fOut {
			if vals[id] {
				got |= 1 << uint(i)
			}
		}
		wantF, wantC := cascadeRef(n, a, b, s, m, cn)
		if got != wantF || vals[cn4] != wantC {
			t.Fatalf("a=%x b=%x s=%x m=%v cn=%v: F=%x want %x, CN4=%v want %v",
				a, b, s, m, cn, got, wantF, vals[cn4], wantC)
		}
	}
}

func TestCascade74181Arithmetic(t *testing.T) {
	// S=1001, M=0, CN=1: F = A plus B over the full width.
	c := Cascade74181(2)
	for a := uint64(0); a < 256; a += 17 {
		for b := uint64(0); b < 256; b += 13 {
			in := make([]bool, len(c.PIs))
			for i := 0; i < 8; i++ {
				in[i] = a>>uint(i)&1 == 1
				in[8+i] = b>>uint(i)&1 == 1
			}
			in[16] = true // S0
			in[19] = true // S3
			in[21] = true // CN (no carry)
			vals := sim.Eval(c, in, nil)
			var got uint64
			for i := 0; i < 8; i++ {
				id, _ := c.NetByName(fmt.Sprintf("F%d", i))
				if vals[id] {
					got |= 1 << uint(i)
				}
			}
			if want := (a + b) & 0xFF; got != want {
				t.Fatalf("%d+%d = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestJohnsonCounterCycle(t *testing.T) {
	n := 4
	c := JohnsonCounter(n)
	m := fault.NewMachine(c, nil)
	seen := map[string]bool{}
	key := func(st []bool) string {
		b := make([]byte, len(st))
		for i, v := range st {
			if v {
				b[i] = '1'
			} else {
				b[i] = '0'
			}
		}
		return string(b)
	}
	// The twisted ring visits exactly 2n states and returns home.
	start := key(m.State())
	for step := 1; step <= 2*n; step++ {
		m.Step([]bool{true})
		k := key(m.State())
		if step < 2*n && k == start {
			t.Fatalf("returned early at step %d", step)
		}
		if seen[k] {
			t.Fatalf("state %s repeated at step %d", k, step)
		}
		seen[k] = true
	}
	if key(m.State()) != start {
		t.Fatalf("did not return to start after %d steps", 2*n)
	}
	// Hold when disabled.
	before := key(m.State())
	m.Step([]bool{false})
	if key(m.State()) != before {
		t.Fatal("advanced while disabled")
	}
}

func TestGrayCounterSingleBitTransitions(t *testing.T) {
	n := 4
	c := GrayCounter(n)
	m := fault.NewMachine(c, nil)
	prev := m.Apply([]bool{true})
	for step := 0; step < 40; step++ {
		out := m.Step([]bool{true})
		_ = out
		cur := m.Apply([]bool{true})
		diff := 0
		for i := range cur {
			if cur[i] != prev[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("step %d: %d outputs changed, want exactly 1", step, diff)
		}
		prev = cur
	}
}
