package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

func enginePatterns(width, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, width)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumCaught != want.NumCaught {
		t.Fatalf("%s: caught %d, want %d", label, got.NumCaught, want.NumCaught)
	}
	for i := range want.Faults {
		if got.Detected[i] != want.Detected[i] || got.DetectedBy[i] != want.DetectedBy[i] {
			t.Fatalf("%s fault %d: (%v,%d), want (%v,%d)", label, i,
				got.Detected[i], got.DetectedBy[i], want.Detected[i], want.DetectedBy[i])
		}
	}
}

// The acceptance criterion: any worker count produces byte-identical
// results to the single-threaded path, dropping or not.
func TestEngineWorkerCountInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 200, 11)
	for _, drop := range []DropMode{DropOn, DropOff} {
		base, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendParallel, Workers: 1, Drop: drop})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 4, 8, 16} {
			got, err := Simulate(context.Background(), c, faults, pats,
				Options{Backend: BackendParallel, Workers: w, Drop: drop})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("workers=%d drop=%v", w, drop), got, base)
		}
	}
}

// Every backend agrees on outcomes for a combinational circuit.
func TestEngineBackendAgreement(t *testing.T) {
	c := circuits.RippleAdder(6)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 100, 5)
	base, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendSerial, BackendCPT, Auto} {
		got, err := Simulate(context.Background(), c, faults, pats, Options{Backend: be})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, be.String(), got, base)
	}
}

// The serial backend must mirror the PPSFP view conventions on scan
// views, including faults on the flip-flops themselves.
func TestEngineSerialScanView(t *testing.T) {
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
		Options{Backend: BackendSerial, View: view})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "serial scan view", got, base)
}

func TestEngineCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := Universe(c)
	pats := enginePatterns(len(c.PIs), 256, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range []Backend{BackendParallel, BackendSerial, BackendCPT} {
		res, err := Simulate(ctx, c, faults, pats, Options{Backend: be, Workers: 4})
		if err == nil || res != nil {
			t.Fatalf("%s: want cancellation error, got res=%v err=%v", be, res, err)
		}
	}
}

// A session must catch the same faults as a one-shot run over the same
// stream, block by block, at every worker count.
func TestEngineSessionMatchesRun(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 192, 17)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		eng := NewEngine(c, Options{Workers: w, Metrics: telemetry.NewRegistry()})
		detected := make([]bool, len(faults))
		s := eng.NewSession(faults, detected)
		var useful uint64
		for base := 0; base < len(pats); base += 64 {
			useful |= s.ApplyBlock(pats[base:base+64], detected)
		}
		if s.Caught() != want.NumCaught {
			t.Fatalf("workers=%d: session caught %d, want %d", w, s.Caught(), want.NumCaught)
		}
		if s.Remaining() != len(faults)-want.NumCaught {
			t.Fatalf("workers=%d: remaining %d", w, s.Remaining())
		}
		for i := range faults {
			if detected[i] != want.Detected[i] {
				t.Fatalf("workers=%d fault %d: detected %v, want %v", w, i, detected[i], want.Detected[i])
			}
		}
		if useful == 0 {
			t.Fatal("no useful patterns recorded")
		}
	}
}

// Engines are reusable: a second Run on the same engine (pooled
// simulators, dirty overlay state) must match a fresh one.
func TestEngineReuse(t *testing.T) {
	c := circuits.RippleAdder(5)
	faults := CollapseEquiv(c, Universe(c)).Reps
	eng := NewEngine(c, Options{Backend: BackendParallel, Workers: 4, Metrics: telemetry.NewRegistry()})
	pats1 := enginePatterns(len(c.PIs), 96, 1)
	pats2 := enginePatterns(len(c.PIs), 96, 2)
	if _, err := eng.Run(context.Background(), faults, pats1); err != nil {
		t.Fatal(err)
	}
	again, err := eng.Run(context.Background(), faults, pats2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Simulate(context.Background(), c, faults, pats2,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "reused engine", again, fresh)
}

func TestEngineEmptyInputs(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)
	if res, err := Simulate(context.Background(), c, nil, enginePatterns(len(c.PIs), 8, 1),
		Options{Backend: BackendParallel, Workers: 4}); err != nil || res.NumCaught != 0 {
		t.Fatalf("empty faults: res=%+v err=%v", res, err)
	}
	if res, err := Simulate(context.Background(), c, faults, nil,
		Options{Backend: BackendParallel, Workers: 4}); err != nil || res.NumCaught != 0 {
		t.Fatalf("empty patterns: res=%+v err=%v", res, err)
	}
}

func TestEngineShardTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := circuits.ArrayMultiplier(5)
	faults := Universe(c) // uncollapsed: big enough to shard
	pats := enginePatterns(len(c.PIs), 128, 3)
	if _, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 4, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.engine.runs"] != 1 {
		t.Fatalf("fault.engine.runs = %d", snap.Counters["fault.engine.runs"])
	}
	if snap.Counters["fault.engine.shards"] < 2 {
		t.Fatalf("fault.engine.shards = %d, want sharded run", snap.Counters["fault.engine.shards"])
	}
	if snap.Counters["fault.sim.events"] == 0 || snap.Counters["fault.sim.faultmasks"] == 0 {
		t.Fatal("per-worker counters not flushed")
	}
	if snap.Gauges["fault.sim.workers"] != 4 {
		t.Fatalf("fault.sim.workers = %d", snap.Gauges["fault.sim.workers"])
	}
}

// The serial backend counts its machine passes on the engine's own
// registry, not the process-wide one, so a run with its own registry
// reports its work and leaks none of it.
func TestSerialEvalsCountedOnEngineRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := circuits.C17()
	evals := telemetry.Default().Counter("fault.serial.evals")
	before := evals.Value()
	if _, err := Simulate(context.Background(), c, Universe(c), enginePatterns(len(c.PIs), 2, 1),
		Options{Backend: BackendSerial, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["fault.serial.evals"]; got == 0 {
		t.Fatal("fault.serial.evals = 0 on the run's registry")
	}
	if d := evals.Value() - before; d != 0 {
		t.Fatalf("Default registry's fault.serial.evals moved by %d", d)
	}
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, be := range []Backend{Auto, BackendParallel, BackendSerial, BackendCPT} {
		got, err := ParseBackend(be.String())
		if err != nil || got != be {
			t.Fatalf("round trip %v: got %v err %v", be, got, err)
		}
	}
	if _, err := ParseBackend("nope"); err == nil {
		t.Fatal("want error for unknown backend")
	}
}

// backendSpans maps each backend a grade can run on to the span a
// packed grade of it opens.
var backendSpans = map[Backend]string{
	BackendSerial:   "fault.sim.serial",
	BackendCPT:      "fault.sim.cpt",
	BackendParallel: "fault.sim.engine",
}

// autoSpan runs one Auto grade, RunPacked or RunDetail, and returns
// its one backend span, after checking that the span observed its
// same-named timer once.
func autoSpan(t *testing.T, c *logic.Circuit, faults []Fault, patterns int, drop DropMode, detail bool) telemetry.Event {
	t.Helper()
	reg := telemetry.NewRegistry()
	e := NewEngine(c, Options{Drop: drop, Metrics: reg})
	pats := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), patterns, 6))
	var err error
	if detail {
		_, err = e.RunDetail(context.Background(), faults, pats)
	} else {
		_, err = e.RunPacked(context.Background(), faults, pats)
	}
	if err != nil {
		t.Fatal(err)
	}
	events, _ := reg.Trace().Events()
	var got []telemetry.Event
	for _, ev := range events {
		switch ev.Name {
		case "fault.sim.serial", "fault.sim.cpt", "fault.sim.engine", "fault.sim.detail":
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("%d backend spans, want 1", len(got))
	}
	if n := reg.Snapshot().Timers[got[0].Name].Count; n != 1 {
		t.Fatalf("timer %s observed %d times, want 1", got[0].Name, n)
	}
	return got[0]
}

// TestEngineAutoHeuristic pins Auto's one test, live ≥ cptPerStem ×
// stems before each block, from both sides, dropping and not, through
// real engines: the span names the backend that ran. c17 has 22
// collapsed faults and 3 reconvergent stems, mult8 1,328 and 224,
// mult5 720 (uncollapsed) and 80, alu74181x4 814 and 105, adder32 770
// and 128, and a parity tree none. Auto never picks serial, however
// small the grade, and a grade's pattern count never enters the test.
func TestEngineAutoHeuristic(t *testing.T) {
	c17 := circuits.C17()
	mult8 := circuits.ArrayMultiplier(8)
	mult8f := CollapseEquiv(mult8, Universe(mult8)).Reps
	mult5 := circuits.ArrayMultiplier(5)
	alu := circuits.Cascade74181(4)
	adder := circuits.RippleAdder(32)
	parity := circuits.ParityTree(16)
	for _, tc := range []struct {
		name     string
		c        *logic.Circuit
		faults   []Fault
		patterns int
		drop     DropMode
		detail   bool
		want     Backend
	}{
		{"c17 16-pattern drop", c17, CollapseEquiv(c17, Universe(c17)).Reps, 16, DropOn, false, BackendCPT},
		{"one-fault mult8 detail", mult8, mult8f[:1], 35, DropOff, true, BackendParallel},
		{"mult8 full list, 384 patterns no drop", mult8, mult8f, 384, DropOff, false, BackendCPT},
		{"mult8 3 faults per stem, 64 patterns no drop", mult8, mult8f[:3*224], 64, DropOff, false, BackendParallel},
		{"mult8 4 faults per stem, 64 patterns no drop", mult8, mult8f[:4*224], 64, DropOff, false, BackendCPT},
		{"mult8 4 faults per stem, detail", mult8, mult8f[:4*224], 200, DropOff, true, BackendCPT},
		{"mult8 one short of 4 per stem, detail", mult8, mult8f[:4*224-1], 200, DropOff, true, BackendParallel},
		{"mult5 4 faults per stem, one-block drop", mult5, Universe(mult5)[:4*80], 64, DropOn, false, BackendCPT},
		{"mult5 one short of 4 per stem, one-block drop", mult5, Universe(mult5)[:4*80-1], 64, DropOn, false, BackendParallel},
		{"alu74181x4 16-pattern drop", alu, CollapseEquiv(alu, Universe(alu)).Reps, 16, DropOn, false, BackendCPT},
		{"adder32 16-pattern drop", adder, CollapseEquiv(adder, Universe(adder)).Reps, 16, DropOn, false, BackendCPT},
		{"fanout-free one-block drop", parity, Universe(parity), 16, DropOn, false, BackendCPT},
	} {
		ev := autoSpan(t, tc.c, tc.faults, tc.patterns, tc.drop, tc.detail)
		want := backendSpans[tc.want]
		if tc.detail {
			want = "fault.sim.detail"
		}
		if ev.Name != want || ev.Attrs["backend"] != tc.want.String() || ev.Attrs["auto"] != "true" {
			t.Errorf("%s (%d faults × %d patterns, %s stems): span %s backend=%q auto=%q, want %s backend=%q",
				tc.name, len(tc.faults), tc.patterns, ev.Attrs["stems"], ev.Name, ev.Attrs["backend"], ev.Attrs["auto"], want, tc.want)
		}
	}
}

// TestEngineAutoDFFCircuit runs Auto on a scan-view circuit with
// flip-flops (156 collapsed faults, 15 reconvergent stems) in every
// job shape: each run must land on exactly one of cpt or parallel
// (read off the backend timers), never open fault.sim.serial, and
// match the serial backend.
func TestEngineAutoDFFCircuit(t *testing.T) {
	c := circuits.Counter(16)
	all := CollapseEquiv(c, Universe(c)).Reps
	inputs := append(append([]int{}, c.PIs...), c.DFFs...)
	outputs := append([]int{}, c.POs...)
	for _, d := range c.DFFs {
		outputs = append(outputs, c.Gates[d].Fanin[0])
	}
	view := View{Inputs: inputs, Outputs: outputs}
	for _, tc := range []struct {
		faults, patterns int
		drop             DropMode
		want             Backend
	}{
		{8, 16, DropOn, BackendParallel},
		{len(all), 16, DropOff, BackendCPT},
		{len(all), 2, DropOn, BackendCPT},
		{len(all), 256, DropOn, BackendParallel},
	} {
		faults := all[:tc.faults]
		pats := enginePatterns(len(inputs), tc.patterns, 7)
		reg := telemetry.NewRegistry()
		got, err := Simulate(context.Background(), c, faults, pats,
			Options{Drop: tc.drop, View: view, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		label := fmt.Sprintf("%d faults × %d patterns drop=%v", tc.faults, tc.patterns, tc.drop)
		if n := snap.Timers["fault.sim.serial"].Count; n != 0 {
			t.Fatalf("%s: Auto opened fault.sim.serial %d times", label, n)
		}
		for be, name := range backendSpans {
			want := int64(0)
			if be == tc.want {
				want = 1
			}
			if n := snap.Timers[name].Count; n != want {
				t.Fatalf("%s: %d runs of %s, want %d", label, n, name, want)
			}
		}
		want, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendSerial, View: view})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label, got, want)
	}
}

// Every backend must agree with every other on the same grading —
// the full algorithm axis of the Options surface.
func TestAllBackendsAgree(t *testing.T) {
	c := circuits.RippleAdder(4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 64, 21)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendSerial, BackendCPT, Auto} {
		for _, drop := range []DropMode{DropOn, DropOff} {
			got, err := Simulate(context.Background(), c, faults, pats,
				Options{Backend: be, Drop: drop})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, be.String(), got, want)
		}
	}
}

// Stem faults on a view input held at a constant must still be modeled
// identically across backends (serial holds unlisted sources at 0).
func TestEnginePartialViewAgreement(t *testing.T) {
	c := circuits.RippleAdder(4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	view := View{Inputs: c.PIs[:len(c.PIs)-2], Outputs: c.POs}
	pats := enginePatterns(len(view.Inputs), 64, 13)
	base, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendParallel, Workers: 1, View: view})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Backend: BackendParallel, Workers: 4, View: view},
		{Backend: BackendSerial, View: view},
	} {
		got, err := Simulate(context.Background(), c, faults, pats, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, opts.Backend.String(), got, base)
	}
}

func TestEngineDFFBranchFaultSerial(t *testing.T) {
	// A DFF D-pin fault is equivalent to the stem fault on the same
	// element (CollapseEquiv merges them), so collapsed lists carry only
	// the stem. The serial backend accepts D-pin faults too; it must
	// honor the equivalence.
	c := circuits.Counter(3)
	var stems []Fault
	for _, f := range Universe(c) {
		if c.Gates[f.Gate].Type == logic.DFF && f.Pin == Stem {
			stems = append(stems, f)
		}
	}
	if len(stems) == 0 {
		t.Skip("no DFF stem faults in universe")
	}
	branches := make([]Fault, len(stems))
	for i, f := range stems {
		branches[i] = Fault{Gate: f.Gate, Pin: 0, SA: f.SA}
	}
	inputs := append(append([]int{}, c.PIs...), c.DFFs...)
	outputs := append([]int{}, c.POs...)
	for _, d := range c.DFFs {
		outputs = append(outputs, c.Gates[d].Fanin[0])
	}
	view := View{Inputs: inputs, Outputs: outputs}
	pats := enginePatterns(len(inputs), 32, 4)
	base, err := Simulate(context.Background(), c, stems, pats,
		Options{Backend: BackendParallel, Workers: 1, View: view})
	if err != nil {
		t.Fatal(err)
	}
	onStems, err := Simulate(context.Background(), c, stems, pats,
		Options{Backend: BackendSerial, View: view})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "serial DFF stems", onStems, base)
	onBranches, err := Simulate(context.Background(), c, branches, pats,
		Options{Backend: BackendSerial, View: view})
	if err != nil {
		t.Fatal(err)
	}
	for i := range stems {
		if onBranches.DetectedBy[i] != onStems.DetectedBy[i] {
			t.Fatalf("fault %v: branch DetectedBy %d, stem %d",
				stems[i], onBranches.DetectedBy[i], onStems.DetectedBy[i])
		}
	}
}

// countdownCtx reports Canceled after a fixed number of Err() polls,
// landing the cancellation deterministically in the middle of the
// parallel backend's shard processing rather than before it starts.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestEngineMidShardCancellation cancels while workers hold chunks and
// checks the contract: a nil Result (so no partial Detected/DetectedBy
// writes can reach the caller), a Canceled error, the cancelled
// counter fired, and the engine's pooled simulators left in a state
// where the next run is still byte-identical to a fresh baseline.
func TestEngineMidShardCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 128, 3)
	want, err := Simulate(context.Background(), c, faults, pats,
		Options{Backend: BackendSerial, Workers: 1, Drop: DropOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, allow := range []int64{1, 3, 7} {
		reg := telemetry.NewRegistry()
		eng := NewEngine(c, Options{Backend: BackendParallel, Workers: 4, Drop: DropOff, Metrics: reg})
		ctx := &countdownCtx{Context: context.Background()}
		ctx.remaining.Store(allow)
		res, err := eng.Run(ctx, faults, pats)
		if err == nil || res != nil {
			t.Fatalf("allow=%d: want mid-shard cancellation, got res=%v err=%v", allow, res, err)
		}
		if n := reg.Counter("fault.engine.cancelled").Value(); n < 1 {
			t.Fatalf("allow=%d: cancelled counter = %d, want >= 1", allow, n)
		}
		got, err := eng.Run(context.Background(), faults, pats)
		if err != nil {
			t.Fatalf("allow=%d: rerun after cancellation: %v", allow, err)
		}
		sameResult(t, fmt.Sprintf("rerun after cancel allow=%d", allow), got, want)
	}
}
