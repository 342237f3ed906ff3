package dft

// One benchmark per paper table/figure (regenerating the underlying
// computation), plus the ablation benches DESIGN.md calls out. Run
// with: go test -bench=. -benchmem .

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/autonomous"
	"dft/internal/bilbo"
	"dft/internal/bridge"
	"dft/internal/circuits"
	"dft/internal/cmos"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/experiments"
	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/plaatpg"
	"dft/internal/ramtest"
	"dft/internal/scanset"
	"dft/internal/seqatpg"
	"dft/internal/service"
	"dft/internal/signature"
	"dft/internal/sim"
	"dft/internal/syndrome"
	"dft/internal/telemetry"
	"dft/internal/testability"
	"dft/internal/walsh"
)

// --- Facts the benchmarks time ---
//
// `go test` runs no benchmarks, so every functional check a benchmark
// makes is also held by a test: these three, plus the package tests
// that cover Fig. 1's test, the flush test, March C- and advise on
// hardcore.

// The ablation engines each reach full coverage of the 8-bit adder.
func TestBenchEngineFullCoverage(t *testing.T) {
	c := circuits.RippleAdder(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.PrimaryView(c)
	for _, cfg := range []atpg.Config{
		{Engine: atpg.EnginePodem},
		{Engine: atpg.EngineDAlg},
		{Engine: atpg.EnginePodem, RandomFirst: 256},
	} {
		cfg.Metrics = telemetry.NewRegistry()
		if res := atpg.Generate(c, view, cl.Reps, cfg); res.Coverage < 1.0 {
			t.Fatalf("engine %d, random-first %d: coverage %.3f", cfg.Engine, cfg.RandomFirst, res.Coverage)
		}
	}
}

// Bounded sequential ATPG finds a test for the 4-bit counter's T2
// stuck-at-0 within eight frames.
func TestBenchSeqATPGUnrollFindsTest(t *testing.T) {
	c := circuits.Counter(4)
	t2, _ := c.NetByName("T2")
	f := fault.Fault{Gate: t2, Pin: fault.Stem, SA: logic.Zero}
	if _, err := seqatpg.Generate(c, f, seqatpg.Config{MaxFrames: 8}); err != nil {
		t.Fatal(err)
	}
}

// The advisor reaches its 99% target on the 74181 ALU.
func TestBenchAdviseALUReachesTarget(t *testing.T) {
	plan, err := advise.Run(context.Background(), circuits.ALU74181(), advise.Options{
		Target: 0.99, Seed: 7, Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Coverage < 0.99 {
		t.Fatalf("coverage %.4f below target", plan.Coverage)
	}
}

// --- Figure/table regenerators ---

func BenchmarkFig1StuckAt(b *testing.B) {
	c := logic.New("and2")
	a := c.AddInput("A")
	bb := c.AddInput("B")
	y := c.AddGate(logic.And, "C", a, bb)
	c.MarkOutput(y)
	c.MustFinalize()
	f := fault.Fault{Gate: y, Pin: 0, SA: logic.One}
	pat := []bool{false, true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fault.DetectsCombinational(c, pat, f) {
			b.Fatal("lost the Fig. 1 test")
		}
	}
}

func BenchmarkEq1Sweep(b *testing.B) {
	// The modern-flow side of the Eq. (1) sweep at one size.
	c := circuits.ArrayMultiplier(4)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.PrimaryView(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, RandomFirst: 64})
	}
}

func BenchmarkCollapse(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	c := circuits.RandomCircuit(rng, 20, 1000, 10, 2)
	u := fault.Universe(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault.CollapseEquiv(c, u)
	}
}

// BenchmarkSetup times the per-job setup every grade job pays before
// the engine starts, on a grade-sized netlist (3,200 gates, fanin up to
// 4): core.Load of the .bench bytes, then Design.Faults' collapse.
func BenchmarkSetup(b *testing.B) {
	c := circuits.RandomCircuit(rand.New(rand.NewSource(1)), 64, 3200, 32, 4)
	src := []byte(logic.BenchString(c))
	d, err := core.Load(c.Name, bytes.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Load(c.Name, bytes.NewReader(src)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("faults", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Faults()
		}
	})
}

func BenchmarkFig2Degating(b *testing.B) {
	c := circuits.RippleAdder(16)
	target, _ := c.NetByName("C16")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := testability.AddControlPoint(c, target)
		testability.Analyze(mod)
	}
}

func BenchmarkFig5InCircuitTest(b *testing.B) {
	adder := circuits.RippleAdder(4)
	mod := &boardModule{c: adder}
	pats := make([][]bool, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range pats {
		p := make([]bool, 9)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pats {
			mod.eval(p)
		}
	}
}

type boardModule struct{ c *logic.Circuit }

func (m *boardModule) eval(p []bool) []bool {
	vals := sim.Eval(m.c, p, nil)
	out := make([]bool, len(m.c.POs))
	for i, po := range m.c.POs {
		out[i] = vals[po]
	}
	return out
}

func BenchmarkFig7LFSR(b *testing.B) {
	l := lfsr.New(3, []int{2, 3})
	l.SetState(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Clock()
	}
}

func BenchmarkFig8Signature(b *testing.B) {
	l := lfsr.NewMaximal(16)
	stream := make([]uint64, 512)
	for i := range stream {
		stream[i] = uint64(i>>3) & 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Signature(stream)
	}
}

func BenchmarkFig8Diagnose(b *testing.B) {
	brd := experimentsBoard()
	a := signature.NewAnalyzer(16)
	s1, _ := brd.C.NetByName("S1")
	f := fault.Fault{Gate: s1, Pin: fault.Stem, SA: logic.One}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := brd.Diagnose(a, f); err != nil {
			b.Fatal(err)
		}
	}
}

func experimentsBoard() *signature.Board {
	c := logic.New("benchboard")
	en := c.AddInput("EN")
	qs := make([]int, 4)
	for i := range qs {
		qs[i] = c.AddDFF("Q"+string(rune('0'+i)), en)
	}
	carry := en
	for i := 0; i < 4; i++ {
		tnet := c.AddGate(logic.Xor, "T"+string(rune('0'+i)), qs[i], carry)
		c.Gates[qs[i]].Fanin[0] = tnet
		if i < 3 {
			carry = c.AddGate(logic.And, "CA"+string(rune('0'+i)), carry, qs[i])
		}
	}
	s1 := c.AddGate(logic.Xor, "S1", qs[1], qs[0])
	p := c.AddGate(logic.Xor, "PAR", s1, qs[2], qs[3])
	c.MarkOutput(p)
	c.MustFinalize()
	return &signature.Board{
		C:        c,
		Stimulus: signature.SelfStimulus(c, 50),
		Modules: []signature.Module{
			{Name: "uP", Outputs: qs},
			{Name: "ALU", Outputs: []int{s1}, Feeds: []string{"uP"}},
			{Name: "CHK", Outputs: []int{p}, Feeds: []string{"ALU"}},
		},
	}
}

func BenchmarkLSSDvsSequentialATPG(b *testing.B) {
	c := circuits.Counter(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.FullScanView(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem})
	}
}

func BenchmarkLSSDScanApplication(b *testing.B) {
	d := lssd.NewDesign(circuits.Counter(8), lssd.StyleLSSD)
	st := lssd.ScanTest{State: make([]bool, 8), PI: []bool{true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunTest(st)
	}
}

func BenchmarkFig13RacelessShift(b *testing.B) {
	ch := lssd.NewChain(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Shift(i&1 == 0)
	}
}

func BenchmarkFig15ScanSetSnapshot(b *testing.B) {
	c := circuits.Counter(16)
	m := fault.NewMachine(c, nil)
	ss := scanset.New(m, c.DFFs, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Snapshot()
	}
}

func BenchmarkFig20BILBO(b *testing.B) {
	st := bilbo.NewSelfTest(circuits.RippleAdder(3), circuits.ParityTree(8), 8, 8, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.GoodSignatures()
	}
}

func BenchmarkFig22PLARandom(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pla := circuits.RandomPLA(rng, 20, 8, 4, 20)
	faults := fault.CollapseEquiv(pla, fault.Universe(pla)).Reps
	pats := make([][]bool, 256)
	for i := range pats {
		p := make([]bool, 20)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFaultSim(b, pla, faults, pats, fault.Options{Backend: fault.BackendParallel})
	}
}

func BenchmarkSyndrome(b *testing.B) {
	c := circuits.RippleAdder(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		syndrome.Syndromes(c)
	}
}

func BenchmarkWalsh(b *testing.B) {
	c := circuits.ALU74181()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walsh.CAll(c, 0, nil)
	}
}

func BenchmarkFig33SensitizedPartitioning(b *testing.B) {
	c := circuits.ALU74181()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autonomous.RunSensitized74181(c)
	}
}

func BenchmarkSCOAP(b *testing.B) {
	c := circuits.ArrayMultiplier(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testability.Analyze(c)
	}
}

// --- Ablation benches (DESIGN.md) ---

// Ablation 1: fault collapsing on/off — effect on fault-simulation time.
func BenchmarkAblationSimCollapsed(b *testing.B) {
	c := circuits.ArrayMultiplier(6)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFaultSim(b, c, cl.Reps, pats, fault.Options{Backend: fault.BackendParallel})
	}
}

func BenchmarkAblationSimUncollapsed(b *testing.B) {
	c := circuits.ArrayMultiplier(6)
	u := fault.Universe(c)
	pats := benchPatterns(c, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFaultSim(b, c, u, pats, fault.Options{Backend: fault.BackendParallel})
	}
}

// Engine scaling: the sharded scheduler at 1/2/4/8 workers on the
// largest library netlist, reusing one engine per row so the pooled
// per-worker simulators are measured, not their construction. On a
// multicore machine the 4-worker row should run ≥ 2× faster than the
// 1-worker row.
func BenchmarkEngineScaling(b *testing.B) {
	c := circuits.ArrayMultiplier(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 256)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			eng := fault.NewEngine(c, fault.Options{Backend: fault.BackendParallel, Workers: w})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cl.Reps, pats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Speed-tier comparison: the same large grading without fault
	// dropping (every fault graded against every pattern — the service
	// tier's re-grading workload), once per backend: cpt grades the
	// whole fault list from one good-machine pass per block, parallel
	// is the PPSFP baseline.
	for _, be := range []fault.Backend{fault.BackendParallel, fault.BackendCPT} {
		b.Run("nodrop/"+be.String(), func(b *testing.B) {
			eng := fault.NewEngine(c, fault.Options{Backend: be, Drop: fault.DropOff})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cl.Reps, pats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The other corner of Eq. 1: a handful of patterns against the
	// full fault list (incremental re-grading), which Auto sends to cpt.
	few := pats[:8]
	for _, be := range []fault.Backend{fault.BackendParallel, fault.BackendCPT} {
		b.Run("fewpats/"+be.String(), func(b *testing.B) {
			eng := fault.NewEngine(c, fault.Options{Backend: be, Drop: fault.DropOff})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cl.Reps, few); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation 2: bit-parallel vs serial fault simulation.
func BenchmarkAblationSimParallel(b *testing.B) {
	c := circuits.ArrayMultiplier(5)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFaultSim(b, c, cl.Reps, pats, fault.Options{Backend: fault.BackendParallel, Drop: fault.DropOff})
	}
}

func BenchmarkAblationSimSerial(b *testing.B) {
	c := circuits.ArrayMultiplier(5)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range cl.Reps {
			for _, p := range pats {
				fault.DetectsCombinational(c, p, f)
			}
		}
	}
}

// Ablation 3: D-algorithm vs PODEM vs random+compaction.
func BenchmarkAblationEnginePodem(b *testing.B) {
	benchEngine(b, atpg.EnginePodem, 0)
}

func BenchmarkAblationEngineDAlg(b *testing.B) {
	benchEngine(b, atpg.EngineDAlg, 0)
}

func BenchmarkAblationEngineRandomFirst(b *testing.B) {
	benchEngine(b, atpg.EnginePodem, 256)
}

func benchEngine(b *testing.B, e atpg.Engine, randomFirst int) {
	b.Helper()
	c := circuits.RippleAdder(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.PrimaryView(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: e, RandomFirst: randomFirst})
		if res.Coverage < 1.0 {
			b.Fatalf("coverage %.3f", res.Coverage)
		}
	}
}

// Ablation 4: scan vs no-scan ATPG on the same machine.
func BenchmarkAblationATPGNoScan(b *testing.B) {
	c := circuits.Counter(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.PrimaryView(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, MaxBacktracks: 200})
	}
}

func BenchmarkAblationATPGFullScan(b *testing.B) {
	c := circuits.Counter(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	view := atpg.FullScanView(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, MaxBacktracks: 200})
	}
}

// Ablation 5: BILBO pattern count vs coverage (time per session size).
func BenchmarkAblationBILBO64(b *testing.B)  { benchBILBO(b, 64) }
func BenchmarkAblationBILBO255(b *testing.B) { benchBILBO(b, 255) }

func benchBILBO(b *testing.B, patterns int) {
	b.Helper()
	c1 := circuits.RippleAdder(3)
	c2 := circuits.ParityTree(8)
	cl := fault.CollapseEquiv(c1, fault.Universe(c1))
	st := bilbo.NewSelfTest(c1, c2, 8, 8, patterns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.MeasureCoverage(cl.Reps)
	}
}

// Ablation 6: LFSR width vs aliasing (signature cost by width).
func BenchmarkAblationLFSRWidth8(b *testing.B)  { benchSigWidth(b, 8) }
func BenchmarkAblationLFSRWidth24(b *testing.B) { benchSigWidth(b, 24) }

func benchSigWidth(b *testing.B, w int) {
	b.Helper()
	l := lfsr.NewMaximal(w)
	stream := make([]uint64, 1024)
	for i := range stream {
		stream[i] = uint64(i) & 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Signature(stream)
	}
}

// BenchmarkCompact is the compaction acceptance benchmark. Three
// workloads per builtin:
//
//   - random: reverse-order replay over a 1024-pattern random set —
//     the paper's store-size economics; the target is ≥ 4× reduction;
//   - deterministic: the full pipeline over the classical
//     one-test-per-collapsed-fault PODEM set (no inter-test
//     fault-drop credit — the workload the compaction literature
//     measures); the target is ≥ 1.5×;
//   - greedy: the full pipeline over a complete Generate run, whose
//     driver already fault-simulates every new test against the
//     remaining list. That greedy credit is compaction in spirit, so
//     the residual ratio here is small by construction; the row is
//     reported for honesty, with no target.
//
// Each row reports its reduction as a compactratio metric.
func BenchmarkCompact(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
	}{
		{"mult8", circuits.ArrayMultiplier(8)},
		{"alu74181", circuits.ALU74181()},
	} {
		c := tc.c
		cl := fault.CollapseEquiv(c, fault.Universe(c))
		view := atpg.PrimaryView(c)
		pats := benchPatterns(c, 1024)
		var perFault []atpg.Test
		for _, f := range cl.Reps {
			if tst, err := atpg.Podem(c, view, f, atpg.PodemConfig{}); err == nil {
				perFault = append(perFault, tst)
			}
		}
		b.Run("random/"+tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				_, st, err := compact.Patterns(context.Background(), c, view, cl.Reps, pats,
					compact.Options{Mode: compact.ModeReverse, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = st.Ratio
			}
			b.ReportMetric(ratio, "compactratio")
		})
		b.Run("deterministic/"+tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				_, _, st, err := compact.Tests(context.Background(), c, view, cl.Reps, perFault,
					compact.Options{Mode: compact.ModeFull, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = st.Ratio
			}
			b.ReportMetric(ratio, "compactratio")
		})
		b.Run("greedy/"+tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := atpg.Generate(c, view, cl.Reps, atpg.Config{
					Engine: atpg.EnginePodem, RandomSeed: 1,
				})
				st, err := compact.Result(context.Background(), c, view, cl.Reps, res,
					compact.Options{Mode: compact.ModeFull, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				ratio = st.Ratio
			}
			b.ReportMetric(ratio, "compactratio")
		})
	}
}

// BenchmarkKernelInterpVsCompiled is the kernel acceptance benchmark:
// interpreted EvalWordsInterpInto vs the compiled program's word
// execution, on three circuit sizes. The reported metric is
// gate-evaluations per second (len(c.Order) nets × 64 patterns per
// word pass), so rows are comparable across circuits; the compiled
// word row must come out ≥ 2× the interp row on the largest circuit.
func BenchmarkKernelInterpVsCompiled(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
	}{
		{"c17", circuits.C17()},
		{"alu74181", circuits.ALU74181()},
		{"mult8", circuits.ArrayMultiplier(8)},
	} {
		c := tc.c
		p := sim.Compile(c)
		rng := rand.New(rand.NewSource(3))
		pi := make([]uint64, len(c.PIs))
		for i := range pi {
			pi[i] = rng.Uint64()
		}
		state := make([]uint64, len(c.DFFs))
		vals := make([]uint64, c.NumNets())
		scratch := make([]uint64, c.MaxFanin())
		evalsPerPass := float64(len(c.Order)) * 64
		b.Run(tc.name+"/interp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.EvalWordsInterpInto(c, pi, state, vals, scratch)
			}
			b.ReportMetric(evalsPerPass*float64(b.N)/b.Elapsed().Seconds(), "gateevals/s")
		})
		b.Run(tc.name+"/compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.EvalWordsInto(pi, state, vals)
			}
			b.ReportMetric(evalsPerPass*float64(b.N)/b.Elapsed().Seconds(), "gateevals/s")
		})
	}
}

// --- Service observability benches ---

// BenchmarkServiceJobLatency measures the job service's end-to-end
// overhead per job — admission, queue, monitor goroutine, report
// encoding — around a small faultsim payload. Distinct seeds defeat
// the result cache, so every iteration runs the full path.
func BenchmarkServiceJobLatency(b *testing.B) {
	srv := service.New(service.Config{
		Workers: 2, QueueDepth: 256, CacheSize: 16,
		Metrics: telemetry.NewRegistry(),
	})
	defer srv.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := srv.Submit(service.JobRequest{
			Kind: service.KindFaultSim, Builtin: "c17",
			Options: service.Options{Seed: int64(i + 1), Patterns: 64},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Wait(context.Background(), j.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceProgressOverhead is the instrumentation ablation:
// the sharded engine with its per-chunk Progress ticks against the
// same run with NoProgress set. The instrumented row must come out
// within 2% of the ablated row — the primitive is two atomics per
// chunk, far off the hot path.
func BenchmarkServiceProgressOverhead(b *testing.B) {
	c := circuits.ArrayMultiplier(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 256)
	for _, tc := range []struct {
		name   string
		noProg bool
	}{
		{"instrumented", false},
		{"ablated", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := fault.NewEngine(c, fault.Options{
				Backend: fault.BackendParallel, Workers: 4,
				NoProgress: tc.noProg, Metrics: telemetry.NewRegistry(),
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), cl.Reps, pats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceProgressPrimitive prices the primitive itself: one
// contended Progress.Inc across GOMAXPROCS goroutines.
func BenchmarkServiceProgressPrimitive(b *testing.B) {
	p := telemetry.NewRegistry().Progress("bench.progress")
	p.SetTotal(int64(b.N))
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.Inc()
		}
	})
}

// BenchmarkExperimentRegistry keeps the full regeneration honest: one
// iteration runs every fast experiment end to end.
func BenchmarkExperimentRegistry(b *testing.B) {
	skip := map[string]bool{"eq1": true}
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if skip[e.ID] {
				continue
			}
			_ = e.Run().Render()
		}
	}
}

func benchPatterns(c *logic.Circuit, n int) [][]bool {
	rng := rand.New(rand.NewSource(9))
	out := make([][]bool, n)
	for i := range out {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		out[i] = p
	}
	return out
}

// --- Extension benches ---

func BenchmarkBridgingGrade(b *testing.B) {
	c := circuits.RippleAdder(6)
	rng := rand.New(rand.NewSource(9))
	bridges := bridge.Universe(c, 1, 100, rng)
	pats := benchPatterns(c, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bridge.Grade(c, bridges, pats)
	}
}

func BenchmarkCMOSTwoPattern(b *testing.B) {
	c := circuits.C17()
	u := cmos.Universe(c)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmos.GradeTwoPattern(c, u, rng)
	}
}

func BenchmarkSeqATPGUnroll(b *testing.B) {
	c := circuits.Counter(4)
	t2, _ := c.NetByName("T2")
	f := fault.Fault{Gate: t2, Pin: fault.Stem, SA: logic.Zero}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seqatpg.Generate(c, f, seqatpg.Config{MaxFrames: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDictionaryBuild(b *testing.B) {
	c := circuits.RippleAdder(4)
	u := fault.Universe(c)
	pats := benchPatterns(c, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diagnose.Build(context.Background(), c, u, pats, diagnose.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// legacyDictionaryBuild replicates the pre-engine serial dictionary
// loop byte-for-byte as the BenchmarkDiagnose baseline: one fresh
// ParallelSim, per-output bit-by-bit response extraction into a
// full per-pattern matrix, and an fnv hash over every response word.
func legacyDictionaryBuild(c *logic.Circuit, faults []fault.Fault, patterns [][]bool) map[uint64][]int {
	poWords := (len(c.POs) + 63) / 64
	responses := make([][][]uint64, len(faults))
	for i := range responses {
		responses[i] = make([][]uint64, len(patterns))
		for p := range responses[i] {
			responses[i][p] = make([]uint64, poWords)
		}
	}
	ps := fault.NewParallelSim(c)
	packed := fault.PackPatternSet(len(c.PIs), patterns)
	for base := 0; base < len(patterns); base += 64 {
		k := ps.LoadPackedBlock(packed.Block(base / 64))
		for fi, f := range faults {
			ps.FaultMask(f)
			for j, po := range c.POs {
				diff := ps.FaultyWord(po) ^ ps.GoodWord(po)
				for bit := 0; bit < k; bit++ {
					if diff>>uint(bit)&1 == 1 {
						responses[fi][base+bit][j/64] |= 1 << uint(j%64)
					}
				}
			}
		}
	}
	byHash := map[uint64][]int{}
	var buf [8]byte
	for fi := range responses {
		h := fnv.New64a()
		for _, pat := range responses[fi] {
			for _, w := range pat {
				for i := 0; i < 8; i++ {
					buf[i] = byte(w >> uint(8*i))
				}
				h.Write(buf[:])
			}
		}
		byHash[h.Sum64()] = append(byHash[h.Sum64()], fi)
	}
	return byHash
}

// BenchmarkDiagnose measures fault-dictionary construction on the 8×8
// multiplier: engine-backed builds against the legacy serial loop, and
// the storage cost of the compact tier, the full-response tier and a
// compacted-input dictionary, each reported as a dictbytes metric.
func BenchmarkDiagnose(b *testing.B) {
	c := circuits.ArrayMultiplier(8)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := benchPatterns(c, 256)
	build := func(b *testing.B, pats [][]bool, opt diagnose.Options) {
		var bytes int
		for i := 0; i < b.N; i++ {
			d, err := diagnose.Build(context.Background(), c, cl.Reps, pats, opt)
			if err != nil {
				b.Fatal(err)
			}
			bytes = d.CompactBytes() + d.FullBytes()
		}
		b.ReportMetric(float64(bytes), "dictbytes")
	}
	b.Run("build/engine/mult8", func(b *testing.B) {
		build(b, pats, diagnose.Options{Workers: 1})
	})
	b.Run("build/legacy/mult8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			legacyDictionaryBuild(c, cl.Reps, pats)
		}
	})
	b.Run("build/full/mult8", func(b *testing.B) {
		build(b, pats, diagnose.Options{Workers: 1, Full: true})
	})
	b.Run("build/compacted/mult8", func(b *testing.B) {
		kept, _, err := compact.Patterns(context.Background(), c, atpg.PrimaryView(c), cl.Reps, pats,
			compact.Options{Mode: compact.ModeReverse, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		build(b, kept, diagnose.Options{Workers: 1})
	})
}

// BenchmarkAdvise is the advisor acceptance benchmark. Two rows: the
// hardcore builtin (buried sequential logic the advisor must open
// with test points and partial scan — coverage must climb from a
// sub-90% baseline to the 99% target) and the 74181 ALU (already
// highly testable — the advisor must stop early and cheaply). Each
// row reports its final coverage, overhead and step count.
func BenchmarkAdvise(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
	}{
		{"hardcore", circuits.Hardcore(8)},
		{"alu74181", circuits.ALU74181()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var plan *advise.Plan
			for i := 0; i < b.N; i++ {
				var err error
				plan, err = advise.Run(context.Background(), tc.c, advise.Options{
					Target: 0.99, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			if plan.Coverage < 0.99 {
				b.Fatalf("%s: coverage %.4f below target", tc.name, plan.Coverage)
			}
			b.ReportMetric(plan.Coverage*100, "coverage%")
			b.ReportMetric(plan.Overhead*100, "overhead%")
			b.ReportMetric(float64(len(plan.Steps)), "steps")
		})
	}
}

func BenchmarkHazardAnalysis(b *testing.B) {
	c := circuits.ALU74181()
	p1 := benchPatterns(c, 2)[0]
	p2 := benchPatterns(c, 2)[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.HazardAnalysis(c, p1, p2)
	}
}

func BenchmarkMarchCMinus(b *testing.B) {
	r := ramtest.New(1024, 8)
	m := ramtest.MarchCMinus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Run(r) {
			b.Fatal("healthy RAM failed")
		}
	}
}

func BenchmarkFlushTest(b *testing.B) {
	d := lssd.NewDesign(circuits.Counter(16), lssd.StyleMuxScan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.FlushTest().Pass {
			b.Fatal("flush failed")
		}
	}
}

func BenchmarkPLADeterministic(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := plaatpg.Spec{NIn: 18}
	for t := 0; t < 6; t++ {
		cube := make(circuits.Cube, s.NIn)
		perm := rng.Perm(s.NIn)
		for _, i := range perm[:16] {
			cube[i] = 1
		}
		s.Cubes = append(s.Cubes, cube)
	}
	s.Outputs = [][]int{{0, 2, 4}, {1, 3, 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plaatpg.BuildAndTest("bench_pla", s)
	}
}
