package experiments

import (
	"time"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/lssd"
	"dft/internal/rascan"
	"dft/internal/scanpath"
	"dft/internal/scanset"
)

// LSSDResult covers Figs. 9–12: the central scan payoff.
type LSSDResult struct {
	Circuit        string
	SeqCoverage    float64 // random sequences, unscanned
	ScanCoverage   float64 // combinational ATPG, full scan
	ScanSecs       float64 // wall-clock; not rendered, so Render is reproducible
	OverheadLSSD   float64
	OverheadMux    float64
	TesterCycles   int
	ChainLength    int
	EndToEndChecks int // faults verified through actual scan hardware
}

// Render prints the comparison.
func (r LSSDResult) Render() string {
	t := &text{title: "Figs. 9–12 — LSSD: scan reduces sequential ATPG to combinational"}
	t.addf("circuit %s (chain length %d)", r.Circuit, r.ChainLength)
	t.addf("random sequences, no scan : coverage %.1f%%", r.SeqCoverage*100)
	t.addf("full-scan ATPG            : coverage %.1f%%", r.ScanCoverage*100)
	t.addf("gate overhead             : LSSD %.1f%%, mux-scan %.1f%% (paper: 4-20%%)",
		r.OverheadLSSD*100, r.OverheadMux*100)
	t.addf("serialization             : %d tester cycles for the scan test set", r.TesterCycles)
	t.addf("end-to-end through scan hardware: %d faults detected", r.EndToEndChecks)
	return t.Render()
}

// Fig9to12LSSD runs the scan experiments. The coverage comparison uses
// a deep counter (its high bits toggle once per 2^9 cycles, far beyond
// the 200-cycle budget, so sequential testing cannot reach them); the
// overhead numbers come from a register-plus-datapath pipeline, the
// structure the paper's 4–20% experience refers to.
func Fig9to12LSSD() Result {
	c := circuits.Counter(10)
	cl := fault.Collapse(c)

	seq := randomPatterns(len(c.PIs), 200, 31)
	seqRes := fault.SimulateSequence(c, cl.Reps, seq)

	start := time.Now()
	scanRes := atpg.Generate(c, atpg.FullScanView(c), cl.Reps, atpg.Config{
		Engine: atpg.EnginePodem, RandomFirst: 128,
	})
	scanSecs := time.Since(start).Seconds()

	alu := circuits.SequencedALU(8)
	lc, _ := lssd.Insert(alu, lssd.StyleLSSD)
	mc, _ := lssd.Insert(alu, lssd.StyleMuxScan)
	d := lssd.NewDesign(c, lssd.StyleLSSD)

	// End-to-end: apply a handful of scan tests to good and faulty
	// hardware models.
	checks := 0
	tried := 0
	search := atpg.NewSearcher(c, atpg.FullScanView(c))
	for _, f := range cl.Reps {
		if tried >= 10 {
			break
		}
		if !c.Gates[f.Gate].Type.IsCombinational() {
			continue
		}
		tried++
		cube, err := search.Podem(f, atpg.PodemConfig{})
		if err != nil {
			continue
		}
		full := cube.Bools()
		st := lssd.ScanTest{PI: full[:len(c.PIs)], State: full[len(c.PIs):]}
		d.Reset()
		want := d.RunTest(st)
		bad := lssd.NewDesign(c, lssd.StyleLSSD)
		bad.InjectFault(f)
		got := bad.RunTest(st)
		differ := false
		for i := range want.PO {
			differ = differ || want.PO[i] != got.PO[i]
		}
		for i := range want.Captured {
			differ = differ || want.Captured[i] != got.Captured[i]
		}
		if differ {
			checks++
		}
	}

	return LSSDResult{
		Circuit:        c.Name,
		SeqCoverage:    seqRes.Coverage(),
		ScanCoverage:   scanRes.RawCover,
		ScanSecs:       scanSecs,
		OverheadLSSD:   lssd.Overhead(alu, lc),
		OverheadMux:    lssd.Overhead(alu, mc),
		TesterCycles:   d.TestCycles(len(scanRes.Patterns)),
		ChainLength:    c.NumDFFs(),
		EndToEndChecks: checks,
	}
}

// ScanPathResult covers Figs. 13–14.
type ScanPathResult struct {
	RaceSafe        bool
	RaceUnsafe      bool
	SelectedShifts  bool
	BlockedOutput   bool
	LargestBefore   int
	LargestAfter    int
	BlockingFFsUsed int
}

// Render prints the raceless-FF and partitioning outcomes.
func (r ScanPathResult) Render() string {
	t := &text{title: "Figs. 13–14 — Scan Path: raceless D-FF, card selection, backtrace partitioning"}
	t.addf("race margin positive (slow feedback)  : safe=%v", r.RaceSafe)
	t.addf("race margin negative (fast feedback)  : safe=%v (the exposure LSSD eliminates)", r.RaceUnsafe)
	t.addf("X·Y card selection: selected card shifts=%v, deselected output blocked=%v",
		r.SelectedShifts, r.BlockedOutput)
	t.addf("backtrace partitioning: largest cone %d gates -> %d after %d blocking flip-flops",
		r.LargestBefore, r.LargestAfter, r.BlockingFFsUsed)
	return t.Render()
}

// Fig13Scanpath runs the Scan Path experiments.
func Fig13Scanpath() Result {
	r := ScanPathResult{
		RaceSafe:   scanpath.Raceless(2.0, 1.0),
		RaceUnsafe: scanpath.Raceless(0.5, 1.0),
	}
	a := scanpath.NewCard("A", scanpath.NewChip("a1", 3))
	b := scanpath.NewCard("B", scanpath.NewChip("b1", 3))
	sub := &scanpath.Subsystem{Cards: []*scanpath.Card{a, b}}
	_ = sub.Select("A")
	sub.Shift(true)
	r.SelectedShifts = a.Chips[0].State()[0]
	r.BlockedOutput = !b.TestOutput() && !b.Chips[0].State()[0]

	c := circuits.RippleAdder(16)
	before := scanpath.LargestPartition(scanpath.Backtrace(c))
	capped, added := scanpath.CapPartitions(c, before/3)
	r.LargestBefore = before
	r.LargestAfter = scanpath.LargestPartition(scanpath.Backtrace(capped))
	r.BlockingFFsUsed = added
	return r
}

// ScanSetResult covers Fig. 15.
type ScanSetResult struct {
	SnapshotValue    uint
	MachineDisturbed bool
	CovPrimary       float64
	CovPartial       float64
	CovFull          float64
}

// Render prints the snapshot and coverage band.
func (r ScanSetResult) Render() string {
	t := &text{title: "Fig. 15 — Scan/Set: shadow register snapshot and partial-scan coverage"}
	t.addf("snapshot of running counter read %d; machine disturbed=%v", r.SnapshotValue, r.MachineDisturbed)
	t.addf("ATPG coverage: pins only %.1f%% < partial Scan/Set %.1f%% < full scan %.1f%%",
		r.CovPrimary*100, r.CovPartial*100, r.CovFull*100)
	return t.Render()
}

// Fig15ScanSet runs the Scan/Set experiments.
func Fig15ScanSet() Result {
	c := circuits.Counter(8)
	m := fault.NewMachine(c, nil)
	ss := scanset.New(m, c.DFFs, nil)
	for i := 0; i < 5; i++ {
		m.Step([]bool{true})
	}
	snap := ss.Snapshot()
	var v uint
	for i, b := range snap {
		if b {
			v |= 1 << uint(i)
		}
	}
	stBefore := m.State()
	m.Apply([]bool{true})
	disturbed := false
	for i, b := range m.State() {
		if b != stBefore[i] {
			disturbed = true
		}
	}

	cl := fault.Collapse(c)
	gen := func(view atpg.View) float64 {
		res := atpg.Generate(c, view, cl.Reps, atpg.Config{Engine: atpg.EnginePodem, MaxBacktracks: 2000})
		return res.RawCover
	}
	return ScanSetResult{
		SnapshotValue:    v,
		MachineDisturbed: disturbed,
		CovPrimary:       gen(atpg.PrimaryView(c)),
		CovPartial:       gen(atpg.PartialScanView(c, c.DFFs[:4])),
		CovFull:          gen(atpg.FullScanView(c)),
	}
}

// RASResult covers Figs. 16–18.
type RASResult struct {
	Latches        int
	GatesPerLatch  float64
	Pins           int
	PinsSerialized int
	SingleOpCost   int
	SerialCost     int
}

// Render prints the overhead and access comparison.
func (r RASResult) Render() string {
	t := &text{title: "Figs. 16–18 — Random-Access Scan: addressable latches"}
	t.addf("%d latches: %.1f gates/latch overhead (paper: 3-4)", r.Latches, r.GatesPerLatch)
	t.addf("pins: %d direct (paper: 10-20), %d with serialized address (paper: 6)",
		r.Pins, r.PinsSerialized)
	t.addf("touching one latch: %d addressed op vs %d serial shifts", r.SingleOpCost, r.SerialCost)
	return t.Render()
}

// Fig16to18RAS runs the Random-Access Scan experiments.
func Fig16to18RAS() Result {
	n := 64
	c := circuits.Counter(n)
	r := rascan.New(fault.NewMachine(c, nil), rascan.PolarityHold)
	r.Write(n-1, true)
	o := rascan.EstimateOverhead(n)
	return RASResult{
		Latches:        n,
		GatesPerLatch:  o.GatesPerLatch,
		Pins:           o.Pins,
		PinsSerialized: o.PinsSerialized,
		SingleOpCost:   r.AddressLoads,
		SerialCost:     n,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register("fig09-12", "Figs. 9-12: LSSD", Fig9to12LSSD)
	register("fig13-14", "Figs. 13-14: Scan Path", Fig13Scanpath)
	register("fig15", "Fig. 15: Scan/Set", Fig15ScanSet)
	register("fig16-18", "Figs. 16-18: Random-Access Scan", Fig16to18RAS)
}
