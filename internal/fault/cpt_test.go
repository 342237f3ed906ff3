package fault

import (
	"context"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Scan views (flip-flops controllable, D inputs observable) must grade
// identically on the cpt backend, including faults on the flip-flops
// themselves.
func TestNewBackendsScanView(t *testing.T) {
	c := circuits.Counter(4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	inputs := append(append([]int{}, c.PIs...), c.DFFs...)
	outputs := append([]int{}, c.POs...)
	for _, d := range c.DFFs {
		outputs = append(outputs, c.Gates[d].Fanin[0])
	}
	view := View{Inputs: inputs, Outputs: outputs}
	pats := enginePatterns(len(inputs), 64, 9)
	base, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1, View: view})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendCPT, View: view})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cpt scan view", got, base)
}

// On a fanout-free circuit the observability chain rule is complete:
// cpt must grade every fault without a single explicit flip
// propagation, and still match the serial ground truth exactly.
func TestCPTFanoutFreeIsPureChainRule(t *testing.T) {
	c := circuits.ParityTree(8) // a tree: every gate output has one reader
	faults := Universe(c)
	pats := enginePatterns(len(c.PIs), 64, 41)
	reg := telemetry.NewRegistry()
	got, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendCPT, Workers: 1, Drop: DropOff, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendSerial})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "cpt on tree", got, want)
	snap := reg.Snapshot()
	if snap.Counters["fault.cpt.flips"] != 0 {
		t.Fatalf("tree circuit forced %d explicit flip propagations, want 0",
			snap.Counters["fault.cpt.flips"])
	}
	if snap.Counters["fault.cpt.chain_obs"] == 0 {
		t.Fatal("chain-rule observability never computed")
	}
}

// On reconvergent fanout the chain rule is unsound, so cpt must fall
// back to explicit complement propagation at the stems — and still be
// exact. The classic trap is a fault reaching an XOR along both paths
// (even parity cancels); c17 adds the NAND reconvergence case.
func TestCPTReconvergenceExact(t *testing.T) {
	b := logic.New("xorre")
	a := b.AddInput("a")
	x := b.AddInput("x")
	n1 := b.AddGate(logic.Nand, "n1", a, x)
	y1 := b.AddGate(logic.Xor, "y1", n1, a) // `a` reconverges at the XOR
	b.MarkOutput(y1)
	xorre := b.MustFinalize()

	for _, c := range []*logic.Circuit{xorre, circuits.C17(), circuits.ALU74181()} {
		faults := Universe(c)
		pats := enginePatterns(len(c.PIs), 64, 43)
		reg := telemetry.NewRegistry()
		got, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendCPT, Workers: 1, Drop: DropOff, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendSerial})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, c.Name, got, want)
		if reg.Snapshot().Counters["fault.cpt.flips"] == 0 {
			t.Fatalf("%s: reconvergent circuit graded without any flip fallback", c.Name)
		}
	}
}

// An engine configured for the pattern-axis cpt backend still serves
// sessions (which run the PPSFP block path on the same simulator
// pool) without interference from prior Run state.
func TestSessionOnCPTEngine(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 128, 17)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(c, Options{Backend: BackendCPT, Workers: 2, Metrics: telemetry.NewRegistry()})
	// Dirty the pooled simulators with a backend run first.
	if _, err := eng.Run(context.Background(), faults, pats[:64]); err != nil {
		t.Fatal(err)
	}
	s := eng.NewSession(faults)
	detected := make([]bool, len(faults))
	for base := 0; base < len(pats); base += 64 {
		s.ApplyBlock(pats[base:base+64], detected)
	}
	if s.Caught() != want.NumCaught {
		t.Fatalf("session caught %d, want %d", s.Caught(), want.NumCaught)
	}
	for i := range faults {
		if detected[i] != want.Detected[i] {
			t.Fatalf("fault %d: detected %v, want %v", i, detected[i], want.Detected[i])
		}
	}
}

// Per-run telemetry for the cpt backend: the shared progress and
// detection counters plus its own work counters must flush.
func TestNewBackendTelemetry(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := Universe(c)
	pats := enginePatterns(len(c.PIs), 64, 3)
	reg := telemetry.NewRegistry()
	if _, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendCPT, Workers: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.cpt.chain_obs"] == 0 {
		t.Fatalf("cpt work counters not flushed: %v", snap.Counters)
	}
	if snap.Counters["fault.sim.patterns"] != int64(len(pats)) {
		t.Fatalf("fault.sim.patterns = %d, want %d", snap.Counters["fault.sim.patterns"], len(pats))
	}
	if snap.Counters["fault.sim.detected"] == 0 {
		t.Fatal("detections not flushed")
	}
}
