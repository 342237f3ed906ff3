package lssd

import (
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

func TestFlushTestPassesOnGoodChain(t *testing.T) {
	for _, style := range []Style{StyleLSSD, StyleMuxScan} {
		d := NewDesign(circuits.Counter(6), style)
		res := d.FlushTest()
		if !res.Pass {
			t.Fatalf("style %v: flush failed on a healthy chain\nsent %v\nrecv %v",
				style, res.Sent, res.Received)
		}
	}
}

func TestFlushTestCatchesBrokenChain(t *testing.T) {
	orig := circuits.Counter(6)
	d := NewDesign(orig, StyleMuxScan)
	// Break the scan path: the scan-side AND of the third position.
	scn, ok := d.Scanned.NetByName("Q2_scn")
	if !ok {
		t.Fatal("scan-path gate missing")
	}
	f := fault.Fault{Gate: scn, Pin: fault.Stem, SA: logic.Zero}
	if !ChainFaultCaught(orig, StyleMuxScan, f) {
		t.Fatal("flush test missed a severed scan path")
	}
	// A stuck SE-side fault that pins the mux into scan mode is also
	// caught (system data never captured, but flush is about the path).
	mux, _ := d.Scanned.NetByName("Q2_mux")
	f2 := fault.Fault{Gate: mux, Pin: fault.Stem, SA: logic.One}
	if !ChainFaultCaught(orig, StyleMuxScan, f2) {
		t.Fatal("flush test missed a stuck chain position")
	}
}

func TestInsertChainsPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := circuits.GrayCounter(6)
	for _, n := range []int{1, 2, 3} {
		scanned, p := InsertChains(orig, n)
		if len(p.ScanIns) != n || len(p.ScanOuts) != n {
			t.Fatalf("chains=%d: pin counts %d/%d", n, len(p.ScanIns), len(p.ScanOuts))
		}
		mo := fault.NewMachine(orig, nil)
		ms := fault.NewMachine(scanned, nil)
		for cyc := 0; cyc < 30; cyc++ {
			in := []bool{rng.Intn(2) == 1}
			sIn := append(append([]bool{}, in...), make([]bool, 1+n)...) // SE + SIs = 0
			a := mo.Step(in)
			b := ms.Step(sIn)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("chains=%d cycle %d: output %d differs", n, cyc, i)
				}
			}
		}
	}
}

func TestInsertChainsBalance(t *testing.T) {
	orig := circuits.Counter(10)
	_, p := InsertChains(orig, 3)
	if p.LongestChain() != 4 { // 10 FFs over 3 chains: 4,3,3
		t.Fatalf("longest chain %d, want 4", p.LongestChain())
	}
	total := 0
	for _, ch := range p.Chains {
		total += len(ch)
	}
	if total != 10 {
		t.Fatalf("chains cover %d of 10 FFs", total)
	}
}

// TestMultiChainShiftWorks drives two chains in parallel through the
// gate-level pins and reads the values back.
func TestMultiChainShiftWorks(t *testing.T) {
	orig := circuits.Counter(6)
	scanned, ports := InsertChains(orig, 2)
	if len(ports.Chains[0]) != 3 || len(ports.Chains[1]) != 3 {
		t.Fatalf("chain split %d/%d", len(ports.Chains[0]), len(ports.Chains[1]))
	}
	m := fault.NewMachine(scanned, nil)
	want := []bool{true, false, true, true, false, true}
	// Chain ch holds original DFFs i with i%2==ch, in order; shift
	// deepest-first per chain.
	perChain := [][]bool{}
	for ch := 0; ch < 2; ch++ {
		var v []bool
		for i := ch; i < 6; i += 2 {
			v = append(v, want[i])
		}
		perChain = append(perChain, v)
	}
	nIn := len(scanned.PIs)
	for k := 2; k >= 0; k-- { // 3 positions per chain
		in := make([]bool, nIn)
		in[1] = true // SE (PI order: EN, SE, SI0, SI1)
		in[2] = perChain[0][k]
		in[3] = perChain[1][k]
		m.Apply(in)
		m.Clock()
	}
	st := m.State() // DFF order == original order
	for i, w := range want {
		if st[i] != w {
			t.Fatalf("position %d = %v, want %v (state %v)", i, st[i], w, st)
		}
	}
}

func TestMultiChainCycleSavings(t *testing.T) {
	orig := circuits.Counter(12)
	_, p1 := InsertChains(orig, 1)
	_, p4 := InsertChains(orig, 4)
	c1 := MultiChainCycles(p1, 10)
	c4 := MultiChainCycles(p4, 10)
	if c4*3 > c1 {
		t.Fatalf("4 chains: %d cycles vs 1 chain: %d — expected ~4x savings", c4, c1)
	}
}
