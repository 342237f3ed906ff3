package fault

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/telemetry"
)

func randomDetailPatterns(nIn, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, nIn)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

// TestRunDetailMatchesSerialOracle checks every backend's detail rows
// bit-for-bit against a per-pattern ParallelSim oracle on c17.
func TestRunDetailMatchesSerialOracle(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 100, 7)

	// Oracle: one 1-pattern block per pattern.
	ps := NewParallelSim(c)
	want := make([][]uint64, len(faults))
	for fi := range want {
		want[fi] = make([]uint64, detailWords(len(pats)))
	}
	packed := PackPatternSet(len(c.PIs), pats)
	for p := range pats {
		words := make([]uint64, len(c.PIs))
		for j, b := range pats[p] {
			if b {
				words[j] = 1
			}
		}
		ps.LoadPackedBlock(words, 1)
		for fi, f := range faults {
			if ps.FaultMask(f)&1 != 0 {
				want[fi][p/64] |= 1 << uint(p%64)
			}
		}
	}

	for _, be := range []Backend{BackendParallel, BackendCPT, BackendSerial} {
		t.Run(be.String(), func(t *testing.T) {
			e := NewEngine(c, Options{Backend: be, Workers: 2})
			dr, err := e.RunDetail(context.Background(), faults, packed)
			if err != nil {
				t.Fatal(err)
			}
			for fi := range faults {
				for w := range want[fi] {
					if dr.Detect[fi][w] != want[fi][w] {
						t.Fatalf("fault %s word %d: got %016x want %016x",
							faults[fi].Name(c), w, dr.Detect[fi][w], want[fi][w])
					}
				}
			}
		})
	}
}

// TestRunDetailWorkerInvariance: rows are byte-identical across every
// backend × worker-count combination, including partial tail blocks.
func TestRunDetailWorkerInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(3)
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 130, 9) // 2 full blocks + 2-pattern tail
	packed := PackPatternSet(len(c.PIs), pats)

	ref, err := NewEngine(c, Options{Backend: BackendParallel, Workers: 1}).
		RunDetail(context.Background(), faults, packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v/w%d", be, w), func(t *testing.T) {
				dr, err := NewEngine(c, Options{Backend: be, Workers: w}).
					RunDetail(context.Background(), faults, packed)
				if err != nil {
					t.Fatal(err)
				}
				for fi := range faults {
					for wi := range ref.Detect[fi] {
						if dr.Detect[fi][wi] != ref.Detect[fi][wi] {
							t.Fatalf("fault %d word %d differs from reference", fi, wi)
						}
					}
				}
			})
		}
	}
}

// TestDetailResultFold: the folded Result agrees with a drop-off
// Simulate on first-detection indices.
func TestDetailResultFold(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 64, 3)
	dr, err := NewEngine(c, Options{}).RunDetail(context.Background(), faults, PackPatternSet(len(c.PIs), pats))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(context.Background(), c, faults, pats, Options{Drop: DropOff})
	if err != nil {
		t.Fatal(err)
	}
	got := dr.Result()
	if got.NumCaught != want.NumCaught {
		t.Fatalf("caught %d, want %d", got.NumCaught, want.NumCaught)
	}
	for fi := range faults {
		if got.Detected[fi] != want.Detected[fi] {
			t.Fatalf("fault %d detected %v, want %v", fi, got.Detected[fi], want.Detected[fi])
		}
		if got.Detected[fi] && got.DetectedBy[fi] != want.DetectedBy[fi] {
			t.Fatalf("fault %d first detect %d, want %d", fi, got.DetectedBy[fi], want.DetectedBy[fi])
		}
	}
}

// TestRunDetailSpanNamesBackendThatRan: a tiny detail grade resolves
// to serial under Auto (and may be asked for serial explicitly), but
// serial has no packed per-pattern form, so the grade runs on the
// parallel path — and the span must say so.
func TestRunDetailSpanNamesBackendThatRan(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)[:4]
	pats := randomDetailPatterns(len(c.PIs), 8, 3)
	for _, be := range []Backend{Auto, BackendSerial} {
		reg := telemetry.NewRegistry()
		if _, err := NewEngine(c, Options{Backend: be, Metrics: reg}).
			RunDetail(context.Background(), faults, PackPatternSet(len(c.PIs), pats)); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ev := range reg.Snapshot().Events {
			if ev.Name == "fault.sim.detail" {
				got = append(got, ev.Attrs["backend"])
			}
		}
		if len(got) != 1 || got[0] != "parallel" {
			t.Fatalf("%v: detail span backend attrs %q, want [parallel]", be, got)
		}
	}
}

func TestRunDetailCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 256, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		if _, err := NewEngine(c, Options{Backend: be}).RunDetail(ctx, faults, PackPatternSet(len(c.PIs), pats)); err == nil {
			t.Fatalf("%v: cancelled detail run returned no error", be)
		}
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want Fault
		ok   bool
	}{
		{"g12 s-a-0", Fault{12, Stem, 0}, true},
		{"g12.in3 s-a-1", Fault{12, 3, 1}, true},
		{"  g0 s-a-1  ", Fault{0, Stem, 1}, true},
		{"g12", Fault{}, false},
		{"g12 s-a-2", Fault{}, false},
		{"x12 s-a-0", Fault{}, false},
		{"g12.inX s-a-0", Fault{}, false},
		{"g-3 s-a-0", Fault{}, false},
	}
	for _, tc := range cases {
		f, err := ParseFault(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseFault(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && f != tc.want {
			t.Fatalf("ParseFault(%q) = %+v, want %+v", tc.in, f, tc.want)
		}
		if tc.ok {
			back, err := ParseFault(f.String())
			if err != nil || back != f {
				t.Fatalf("String round-trip of %+v failed: %+v %v", f, back, err)
			}
		}
	}
	c := circuits.C17()
	if err := (Fault{Gate: 3, Pin: Stem}).Validate(c); err != nil {
		t.Fatal(err)
	}
	if err := (Fault{Gate: 99, Pin: Stem}).Validate(c); err == nil {
		t.Fatal("out-of-range gate validated")
	}
	if err := (Fault{Gate: 0, Pin: 5}).Validate(c); err == nil {
		t.Fatal("out-of-range pin validated")
	}
}
