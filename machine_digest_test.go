package dft

// A digest of every cycle-level machine the toolkit steps, good and
// faulty: serial sequential fault simulation on the sequential
// builtins, LSSD and mux-scan test application on a scanned counter
// with no fault and with each collapsed fault injected, signature
// analysis (golden signatures, the kernel-first diagnosis walk and the
// detection experiment) on a self-stimulating board, and the
// bed-of-nails in-circuit test and degated clock session of the board
// package. Any change to the clock-edge rule, fault injection or the
// good machine's evaluation fails here.

import (
	"math/rand"
	"testing"

	"dft/internal/board"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/lssd"
	"dft/internal/signature"
)

func TestMachineDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, tr *trace)
		want string
	}{
		{"sequence", machineDigestSequence, "33dafc7970e5134b"},
		{"scan", machineDigestScan, "2deba925b42eb0be"},
		{"signature", machineDigestSignature, "2530a023258bd3d3"},
		{"board", machineDigestBoard, "c8f2632a64c00e85"},
	} {
		tr := newTrace()
		tc.run(t, tr)
		if got := tr.String(); got != tc.want {
			t.Errorf("%s: machine digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// machineDigestSequence folds SimulateSequence's detections on every
// builtin that has flip-flops.
func machineDigestSequence(t *testing.T, tr *trace) {
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.DFFs) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(int64(len(c.Gates))))
		seq := make([][]bool, 40)
		for i := range seq {
			seq[i] = randBits(rng, len(c.PIs))
		}
		res := fault.SimulateSequence(c, fault.Collapse(c).Reps, seq)
		tr.add("%s %d %v %v", name, res.NumCaught, res.Detected, res.DetectCyc)
	}
}

// machineDigestScan folds RunTest responses on a scanned counter in
// both styles, fault-free and under each collapsed fault of the
// scanned netlist.
func machineDigestScan(t *testing.T, tr *trace) {
	c := circuits.Counter(4)
	for _, style := range []lssd.Style{lssd.StyleLSSD, lssd.StyleMuxScan} {
		d := lssd.NewDesign(c, style)
		rng := rand.New(rand.NewSource(int64(style) + 7))
		tests := make([]lssd.ScanTest, 4)
		for i := range tests {
			tests[i] = lssd.ScanTest{State: randBits(rng, d.ChainLength()), PI: randBits(rng, len(c.PIs))}
		}
		runAll := func(label string) {
			for _, st := range tests {
				r := d.RunTest(st)
				tr.add("%s %v %v", label, r.PO, r.Captured)
			}
			tr.add("cycles %d", d.Cycles)
		}
		d.Reset()
		runAll("good")
		for _, f := range fault.Collapse(d.Scanned).Reps {
			d.InjectFault(f)
			runAll(f.String())
		}
	}
}

// machineDigestSignature folds the board's golden signatures, the
// diagnosis of every collapsed fault and the detection experiment on
// its parity output.
func machineDigestSignature(t *testing.T, tr *trace) {
	brd := experimentsBoard()
	a := signature.NewAnalyzer(16)
	var nets []int
	for _, m := range brd.Modules {
		nets = append(nets, m.Outputs...)
	}
	golden := brd.GoldenSignatures(a, nets)
	for _, n := range nets {
		tr.add("golden %d %x", n, golden[n])
	}
	faults := fault.Collapse(brd.C).Reps
	for _, f := range faults {
		d, err := brd.Diagnose(a, f)
		if err != nil {
			t.Fatal(err)
		}
		tr.add("%s %s %v %v %d", f, d.Culprit, d.BadNets, d.GoodNets, d.Probes)
	}
	par, _ := brd.C.NetByName("PAR")
	caught, disturbed := signature.DetectionExperiment(brd, a, par, faults)
	tr.add("experiment %d %d", caught, disturbed)
}

// machineDigestBoard folds the in-circuit test of a two-module board
// with each collapsed adder fault injected, and a free-running and a
// degated clock session on a counter.
func machineDigestBoard(t *testing.T, tr *trace) {
	adder, par := circuits.RippleAdder(4), circuits.ParityTree(4)
	rng := rand.New(rand.NewSource(3))
	pats := func(n int) [][]bool {
		out := make([][]bool, 16)
		for i := range out {
			out[i] = randBits(rng, n)
		}
		return out
	}
	patterns := map[string][][]bool{"ADD": pats(len(adder.PIs)), "PAR": pats(len(par.PIs))}
	for _, f := range fault.Collapse(adder).Reps {
		f := f
		b := &board.Board{Modules: []*board.Module{
			{Name: "ADD", Logic: adder, Fault: &f},
			{Name: "PAR", Logic: par},
		}}
		failing, err := (&board.BedOfNails{B: b}).InCircuitTest(patterns)
		if err != nil {
			t.Fatal(err)
		}
		out := b.Modules[0].Eval(patterns["ADD"][0])
		tr.add("%s %v %v", f, failing, out)
	}
	c := circuits.Counter(4)
	inputs := make([][]bool, 20)
	for i := range inputs {
		inputs[i] = []bool{i%3 != 0}
	}
	free := board.NewOscillator(1)
	degated := board.NewOscillator(1)
	degated.Degate, degated.Pseudo = true, true
	for _, o := range []*board.Oscillator{free, degated} {
		tr.add("session %v", board.SyncSession(c, o, inputs))
	}
}
