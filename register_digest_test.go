package dft

// Digests of the self-test registers' state traces: the BILBO register
// (Figs. 19–21) in every mode at several widths, the autonomous-test
// module (Figs. 26–29) in its N, S and PRPG modes, and the two-network
// BILBO self-test's signatures per fault. Every latch state the
// registers pass through is folded into an FNV-64a fingerprint, so any
// change to the tap convention, the MISR/PRPG step or the inverting
// scan path fails here.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"dft/internal/autonomous"
	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
)

// trace folds formatted values into an FNV-64a fingerprint.
type trace struct{ h hash.Hash64 }

func newTrace() *trace { return &trace{h: fnv.New64a()} }

func (t *trace) add(format string, args ...any) { fmt.Fprintf(t.h, format+";", args...) }

func (t *trace) String() string { return fmt.Sprintf("%016x", t.h.Sum64()) }

func randBits(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func TestBILBORegisterTraceDigest(t *testing.T) {
	want := map[int]string{
		3:  "bdb63cf4c1e16381",
		8:  "42bff6dec9596dd5",
		16: "81adc4d4ea64850e",
		32: "bf1afaa0f6e0a5de",
	}
	for _, w := range []int{3, 8, 16, 32} {
		rng := rand.New(rand.NewSource(int64(w)))
		tr := newTrace()
		r := bilbo.NewRegister(w)
		tr.add("w=%d q=%x", r.Width(), r.QWord())
		r.SetQ(randBits(rng, w))
		tr.add("setq %v %x", r.Q(), r.Signature())
		for step := 0; step < 400; step++ {
			var mode bilbo.Mode
			var z []bool
			switch k := rng.Intn(10); {
			case k < 2:
				mode, z = bilbo.ModeSystem, randBits(rng, w)
			case k < 5:
				mode = bilbo.ModeShift
			case k < 8:
				mode, z = bilbo.ModeSignature, randBits(rng, w)
			case k < 9:
				mode = bilbo.ModeSignature
			default:
				mode = bilbo.ModeReset
			}
			scanIn := rng.Intn(2) == 1
			out := r.Clock(mode, z, scanIn)
			tr.add("%d %v %v %v %x %v", mode, z, scanIn, out, r.QWord(), r.Q())
		}
		r.SetQ(randBits(rng, w))
		tr.add("pn %x", r.PNSequence(100))
		tr.add("scan %v %x", r.ScanOutAll(), r.QWord())
		r.Clock(bilbo.ModeReset, nil, false)
		tr.add("pn0 %x", r.PNSequence(5))
		if got := tr.String(); got != want[w] {
			t.Errorf("width %d: trace digest %s, want %s", w, got, want[w])
		}
	}
}

func TestAutonomousModuleTraceDigest(t *testing.T) {
	want := map[int]string{
		3: "759cd23d47f47e4d",
		5: "ba986bcb012070ae",
		8: "35baff2f35a65ae8",
	}
	for _, w := range []int{3, 5, 8} {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		tr := newTrace()
		m := autonomous.NewModule(w)
		tr.add("w=%d q=%x", w, m.QWord())
		m.SetQ(randBits(rng, w))
		tr.add("setq %v", m.Q())
		for step := 0; step < 300; step++ {
			n, s := rng.Intn(3) == 0, rng.Intn(2) == 1
			var data []bool
			if rng.Intn(4) != 0 {
				data = randBits(rng, w)
			}
			m.Clock(n, s, data)
			tr.add("%v %v %v %x %v", n, s, data, m.QWord(), m.Q())
		}
		m.SetQ(randBits(rng, w))
		tr.add("gen %x", m.Generate(1<<uint(w)))
		words := make([][]bool, 20)
		for i := range words {
			words[i] = randBits(rng, w)
		}
		tr.add("sig %x %x", m.Compress(words), m.QWord())
		if got := tr.String(); got != want[w] {
			t.Errorf("width %d: trace digest %s, want %s", w, got, want[w])
		}
	}
}

func TestBILBOSelfTestDigest(t *testing.T) {
	pairs := []struct {
		name         string
		c1, c2       *logic.Circuit
		w1, w2, pats int
		want         string
	}{
		{"adder-parity", circuits.RippleAdder(3), circuits.ParityTree(8), 8, 8, 200, "d81363f10caf0b86"},
		{"pla-parity", circuits.RandomPLA(rand.New(rand.NewSource(11)), 16, 6, 4, 16),
			circuits.ParityTree(8), 16, 8, 300, "00f70bf84db4a5cf"},
	}
	for _, p := range pairs {
		st := bilbo.NewSelfTest(p.c1, p.c2, p.w1, p.w2, p.pats)
		tr := newTrace()
		g1, g2 := st.GoodSignatures()
		tr.add("good %x %x", g1, g2)
		u1 := fault.CollapseEquiv(p.c1, fault.Universe(p.c1)).Reps
		cs := st.MeasureCoverage(u1)
		tr.add("cov %d/%d %d", cs.Detected, cs.Total, cs.Patterns)
		for net, c := range []*logic.Circuit{p.c1, p.c2} {
			for _, f := range fault.CollapseEquiv(c, fault.Universe(c)).Reps {
				ff := f
				s1, s2 := st.SessionSignatures(net+1, &ff)
				tr.add("%d %v %x %x", net+1, f, s1, s2)
			}
		}
		if got := tr.String(); got != p.want {
			t.Errorf("%s: self-test digest %s, want %s", p.name, got, p.want)
		}
	}
}
