package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// bigRandom is a ≥2k-gate random netlist with over a thousand
// reconvergent stems: enough for cpt to shard every block eight ways.
func bigRandom() *logic.Circuit {
	return circuits.RandomCircuit(rand.New(rand.NewSource(11)), 48, 2000, 24, 4)
}

// cptSpanWorkers returns the workers attribute of the registry's last
// fault.sim.cpt span.
func cptSpanWorkers(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	events, _ := reg.Trace().Events()
	w := ""
	for _, ev := range events {
		if ev.Name == "fault.sim.cpt" {
			w = ev.Attrs["workers"]
		}
	}
	if w == "" {
		t.Fatal("no fault.sim.cpt span recorded")
	}
	return w
}

// Stem-sharded cpt must grade exactly like one worker and like the
// parallel-pattern backend at every worker count, block count and drop
// mode, and a sample of its verdicts must match the serial backend.
func TestStemShardedCPTMatchesSerial(t *testing.T) {
	c := bigRandom()
	faults := CollapseEquiv(c, Universe(c)).Reps
	sample := make([]Fault, 0, 48)
	for i := 0; i < cap(sample); i++ {
		sample = append(sample, faults[i*len(faults)/cap(sample)])
	}
	for _, nPats := range []int{64, 192} {
		pats := enginePatterns(len(c.PIs), nPats, int64(nPats))
		want, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendParallel, Workers: 1, Drop: DropOff})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := Simulate(context.Background(), c, sample, pats, Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sample {
			j := i * len(faults) / cap(sample)
			if serial.Detected[i] != want.Detected[j] || serial.DetectedBy[i] != want.DetectedBy[j] {
				t.Fatalf("%d patterns, fault %v: parallel (%v,%d), serial (%v,%d)", nPats, faults[j],
					want.Detected[j], want.DetectedBy[j], serial.Detected[i], serial.DetectedBy[i])
			}
		}
		for _, drop := range []DropMode{DropOn, DropOff} {
			for _, w := range []int{1, 2, 3, 8} {
				reg := telemetry.NewRegistry()
				got, err := Simulate(context.Background(), c, faults, pats,
					Options{Backend: BackendCPT, Workers: w, Drop: drop, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%d patterns drop=%v workers=%d", nPats, drop, w)
				sameResult(t, label, got, want)
				if sw := cptSpanWorkers(t, reg); sw != fmt.Sprint(w) {
					t.Fatalf("%s: span workers = %s, want the stems sharded %d ways", label, sw, w)
				}
			}
		}
	}
}

// The scan view of a sequential circuit (flip-flops controllable, D
// inputs observable) shards and grades like the serial backend,
// including faults on the flip-flops themselves and their D pins.
func TestStemShardedCPTScanView(t *testing.T) {
	c := circuits.SequencedALU(16)
	faults := Universe(c)
	inputs := append(append([]int{}, c.PIs...), c.DFFs...)
	outputs := append([]int{}, c.POs...)
	for _, d := range c.DFFs {
		outputs = append(outputs, c.Gates[d].Fanin[0])
	}
	view := View{Inputs: inputs, Outputs: outputs}
	pats := enginePatterns(len(inputs), 128, 5)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendSerial, Drop: DropOff, View: view})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		reg := telemetry.NewRegistry()
		got, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendCPT, Workers: w, View: view, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("scan view workers=%d", w), got, want)
		if sw := cptSpanWorkers(t, reg); sw != fmt.Sprint(w) {
			t.Fatalf("scan view: span workers = %s, want %d", sw, w)
		}
	}
	// The flat kernel pins the flip-flop on a D-pin fault, as serial does.
	got, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 2, View: view})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "scan view parallel", got, want)
}

// cpt's work counters describe the algorithm, not the schedule: flips
// and chain-rule words are the same at every worker count, for Run
// and for RunDetail.
func TestCPTCountersWorkerInvariant(t *testing.T) {
	c := bigRandom()
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), 130, 9))
	var want [2]int64
	for _, w := range []int{1, 2, 3, 8} {
		for _, detail := range []bool{false, true} {
			reg := telemetry.NewRegistry()
			e := NewEngine(c, Options{Backend: BackendCPT, Workers: w, Drop: DropOff, Metrics: reg})
			var err error
			if detail {
				_, err = e.RunDetail(context.Background(), faults, pats)
			} else {
				_, err = e.RunPacked(context.Background(), faults, pats)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := [2]int64{reg.Counter("fault.cpt.flips").Value(), reg.Counter("fault.cpt.chain_obs").Value()}
			if got[0] == 0 || got[1] == 0 {
				t.Fatalf("workers=%d detail=%v: counters not flushed: %v", w, detail, got)
			}
			if want[0] == 0 {
				want = got
			}
			if got != want {
				t.Fatalf("workers=%d detail=%v: flips/chain_obs = %v, want %v", w, detail, got, want)
			}
		}
	}
}

// A cancellation landing between stem chunks, in the middle of the
// first block, returns ctx.Err() and no result, for Run and RunDetail
// at one and several workers; the engine then reruns cleanly.
func TestCPTMidBlockCancellation(t *testing.T) {
	c := bigRandom()
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), 64, 13))
	want, err := NewEngine(c, Options{Backend: BackendCPT, Workers: 1}).RunPacked(context.Background(), faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		for _, detail := range []bool{false, true} {
			reg := telemetry.NewRegistry()
			e := NewEngine(c, Options{Backend: BackendCPT, Workers: w, Metrics: reg})
			ctx := &countdownCtx{Context: context.Background()}
			ctx.remaining.Store(20)
			if detail {
				dr, err := e.RunDetail(ctx, faults, pats)
				if !errors.Is(err, context.Canceled) || dr != nil {
					t.Fatalf("workers=%d detail: got %v, %v; want nil, Canceled", w, dr, err)
				}
			} else {
				res, err := e.RunPacked(ctx, faults, pats)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("workers=%d: got %v, %v; want nil, Canceled", w, res, err)
				}
			}
			if n := reg.Counter("fault.sim.faultmasks").Value(); n == 0 {
				t.Fatalf("workers=%d detail=%v: cancelled before any flip, not mid-block", w, detail)
			}
			if n := reg.Counter("fault.sim.blocks").Value(); n != 0 {
				t.Fatalf("workers=%d detail=%v: %d blocks completed, want the cancel inside the first", w, detail, n)
			}
			if n := reg.Counter("fault.engine.cancelled").Value(); n != 1 {
				t.Fatalf("workers=%d detail=%v: cancelled counter = %d", w, detail, n)
			}
			got, err := e.RunPacked(context.Background(), faults, pats)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("rerun after cancel workers=%d", w), got, want)
		}
	}
}

// FaultyWord reads the machine of the last FaultMask call on every
// net, and the next call restores the nets the previous one dirtied.
func TestFaultyWordAfterFaultMask(t *testing.T) {
	c := circuits.ALU74181()
	pats := enginePatterns(len(c.PIs), 64, 21)
	ps := NewParallelSim(c)
	ps.LoadPackedBlock(PackPatternSet(len(c.PIs), pats).Block(0))
	vals := make([]bool, c.NumNets())
	scratch := make([]bool, c.MaxFanin())
	for _, f := range Universe(c) {
		ps.FaultMask(f)
		for p, pat := range pats {
			EvalInto(c, pat, nil, &f, vals, scratch)
			for n := range vals {
				if got := ps.FaultyWord(n)>>uint(p)&1 == 1; got != vals[n] {
					t.Fatalf("%v: FaultyWord(%s) pattern %d = %v, want %v", f, c.NameOf(n), p, got, vals[n])
				}
			}
		}
	}
}

// A gate reading one net on two pins sees a branch fault on the named
// pin only, and a stem fault on both: XOR(a, a) masks every stem fault
// on a, while a branch fault on one of its pins is detected whenever
// the other pin carries the opposite value. Every backend agrees.
func TestGateReadingNetOnTwoPins(t *testing.T) {
	b := logic.New("tied")
	a := b.AddInput("a")
	x := b.AddInput("x")
	y := b.AddGate(logic.Xor, "y", a, a)
	z := b.AddGate(logic.And, "z", a, a, x)
	b.MarkOutput(y)
	b.MarkOutput(z)
	c := b.MustFinalize()
	pats := [][]bool{{false, false}, {false, true}, {true, false}, {true, true}}
	ps := NewParallelSim(c)
	ps.LoadPackedBlock(PackPatternSet(len(c.PIs), pats).Block(0))
	aWord := ps.GoodWord(a)
	for _, tc := range []struct {
		f    Fault
		want uint64
	}{
		{Fault{a, Stem, logic.Zero}, ps.GoodWord(a) & ps.GoodWord(x)}, // seen at z only
		{Fault{y, 0, logic.One}, ^aWord & 0xF},
		{Fault{y, 1, logic.Zero}, aWord},
		{Fault{z, 1, logic.Zero}, aWord & ps.GoodWord(x)},
		{Fault{z, 0, logic.One}, 0}, // the other a pin still gates z
	} {
		if got := ps.FaultMask(tc.f) & 0xF; got != tc.want {
			t.Errorf("%v: mask %04b, want %04b", tc.f, got, tc.want)
		}
	}
	faults := Universe(c)
	want, err := Simulate(context.Background(), c, faults, pats, Options{Backend: BackendSerial, Drop: DropOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		got, err := Simulate(context.Background(), c, faults, pats, Options{Backend: be, Drop: DropOff})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, be.String(), got, want)
	}
}
