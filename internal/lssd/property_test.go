package lssd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dft/internal/circuits"
	"dft/internal/fault"
)

// TestPropertyChainLoadUnload: for any chain length and contents,
// Load places the values and Unload returns them.
func TestPropertyChainLoadUnload(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%32
		rng := rand.New(rand.NewSource(seed))
		ch := NewChain(n)
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
		}
		ch.Load(vals)
		st := ch.State()
		for i := range vals {
			if st[i] != vals[i] {
				return false
			}
		}
		out := ch.Unload()
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScanRoundTrip: for any counter size and random chain
// contents, scanning in through the gate-level SI pin and reading the
// chain back gives the identity, for both styles.
func TestPropertyScanRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, styleRaw uint8) bool {
		n := 2 + int(nRaw)%6
		style := StyleLSSD
		if styleRaw%2 == 1 {
			style = StyleMuxScan
		}
		d := NewDesign(circuits.Counter(n), style)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 1
		}
		d.ScanIn(vals)
		got := d.ChainState()
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScanTransparency: with SE=0 the scanned circuit tracks
// the original cycle for cycle on random input sequences.
func TestPropertyScanTransparency(t *testing.T) {
	f := func(seed int64, styleRaw uint8) bool {
		style := StyleLSSD
		if styleRaw%2 == 1 {
			style = StyleMuxScan
		}
		orig := circuits.GrayCounter(4)
		scanned, _ := Insert(orig, style)
		rng := rand.New(rand.NewSource(seed))
		mo := fault.NewMachine(orig, nil)
		ms := fault.NewMachine(scanned, nil)
		for cyc := 0; cyc < 25; cyc++ {
			in := []bool{rng.Intn(2) == 1}
			a := mo.Step(in)
			b := ms.Step(append(append([]bool{}, in...), false, false))
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCaptureMatchesNextState: Capture stores exactly the
// original machine's next-state function of (state, inputs).
func TestPropertyCaptureMatchesNextState(t *testing.T) {
	f := func(seed int64) bool {
		orig := circuits.Counter(5)
		d := NewDesign(orig, StyleMuxScan)
		rng := rand.New(rand.NewSource(seed))
		st := make([]bool, 5)
		for i := range st {
			st[i] = rng.Intn(2) == 1
		}
		pi := []bool{rng.Intn(2) == 1}
		resp := d.RunTest(ScanTest{State: st, PI: pi})
		m := fault.NewMachine(orig, nil)
		m.SetState(st)
		m.Step(pi)
		want := m.State()
		for i := range want {
			if resp.Captured[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
