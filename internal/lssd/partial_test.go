package lssd

import (
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

func TestInsertPartialPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		orig := circuits.Counter(4)
		subset := []int{orig.DFFs[0], orig.DFFs[2]}
		scanned, p := InsertPartial(orig, subset, style)
		if len(p.ChainL1) != 2 {
			t.Fatalf("style %d: chain length %d, want 2", style, len(p.ChainL1))
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

func TestInsertPartialShiftsOnlyTheChain(t *testing.T) {
	orig := circuits.ShiftRegister(4)
	subset := []int{orig.DFFs[0], orig.DFFs[1]}
	scanned, p := InsertPartial(orig, subset, StyleMuxScan)
	m := fault.NewMachine(scanned, nil)
	// SE=1: clock two 1s through SI. The chained prefix loads them; the
	// unchained tail keeps following its system path, which only ever
	// sees the pre-shift zeros.
	for cyc := 0; cyc < 2; cyc++ {
		m.Step([]bool{false, true, true}) // D=0, SE=1, SI=1
	}
	for i, dff := range orig.DFFs {
		name := orig.NameOf(dff)
		n, ok := scanned.NetByName(name)
		if !ok {
			t.Fatalf("element %s missing after insertion", name)
		}
		want := i < 2
		if got := m.Peek(n); got != want {
			t.Fatalf("after shifting, %s = %v, want %v", name, got, want)
		}
	}
	if got := len(p.ChainL1); got != 2 {
		t.Fatalf("chain holds %d elements, want 2", got)
	}
}

func TestInsertIsInsertPartialOverAll(t *testing.T) {
	orig := circuits.Counter(3)
	a, _ := Insert(orig, StyleMuxScan)
	b, _ := InsertPartial(orig, orig.DFFs, StyleMuxScan)
	if logic.CanonicalBench(a) != logic.CanonicalBench(b) {
		t.Fatal("Insert and InsertPartial(all) disagree")
	}
}

func TestInsertPartialRejectsNonStorage(t *testing.T) {
	orig := circuits.Counter(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a non-storage chain element")
		}
	}()
	InsertPartial(orig, []int{orig.PIs[0]}, StyleMuxScan)
}

func TestInsertPartialRejectsEmptyChain(t *testing.T) {
	orig := circuits.Counter(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an empty chain")
		}
	}()
	InsertPartial(orig, nil, StyleMuxScan)
}
