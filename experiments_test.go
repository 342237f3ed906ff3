package dft

// The repository-root experiment tests regenerate every table and
// figure of the paper and assert its quantitative claims: who wins, by
// roughly what factor, and where the crossovers fall. Each test
// corresponds to a row of the per-experiment index in DESIGN.md and a
// section of EXPERIMENTS.md.

import (
	"math"
	"strings"
	"testing"

	"dft/internal/experiments"
)

func render(t *testing.T, id string) string {
	t.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	out := e.Run().Render()
	t.Log("\n" + out)
	return out
}

func TestExpFig1(t *testing.T) {
	r := experiments.Fig1().(experiments.Fig1Result)
	if !r.IsTest {
		t.Fatal("Fig. 1 pattern 01 must be a test for A s-a-1")
	}
	if r.GoodOut || !r.FaultyOut {
		t.Fatalf("good=%v faulty=%v, want 0/1", r.GoodOut, r.FaultyOut)
	}
	render(t, "fig01")
}

func TestExpFaultUniverse(t *testing.T) {
	r := experiments.FaultUniverse().(experiments.UniverseResult)
	if r.SingleFaults != 6000 {
		t.Fatalf("6·G = %d, want 6000", r.SingleFaults)
	}
	if r.MultipleFaults < 5.1e47 || r.MultipleFaults > 5.2e47 {
		t.Fatalf("3^100 = %.3g", r.MultipleFaults)
	}
	// "About 3000": the collapse ratio lands near one half.
	if r.CollapseRatio < 0.35 || r.CollapseRatio > 0.70 {
		t.Fatalf("collapse ratio %.2f outside the paper's 'about half' band", r.CollapseRatio)
	}
	if r.SimulationPasses != 3001 {
		t.Fatalf("simulation passes %d, want 3001", r.SimulationPasses)
	}
}

func TestExpEq1Scaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	r := experiments.Eq1Scaling(nil).(experiments.Eq1Result)
	t.Log("\n" + r.Render())
	// The classical serial flow reproduces the paper's T = K·N³
	// (footnote 1 debates 2 vs 3; timing noise argues for a band).
	if r.ClassicalExponent < 2.2 || r.ClassicalExponent > 4.0 {
		t.Fatalf("classical exponent %.2f outside the paper's band", r.ClassicalExponent)
	}
	// The modern flow must beat the classical law decisively.
	if r.ModernExponent >= r.ClassicalExponent {
		t.Fatalf("modern exponent %.2f should beat classical %.2f",
			r.ModernExponent, r.ClassicalExponent)
	}
	last := r.Points[len(r.Points)-1]
	if last.ModernSecs >= last.ClassicalSecs {
		t.Fatalf("modern flow slower than classical at %d gates", last.Gates)
	}
}

func TestExpExhaustive(t *testing.T) {
	r := experiments.Exhaustive().(experiments.ExhaustiveResult)
	if r.Patterns < 3.7e22 || r.Patterns > 3.9e22 {
		t.Fatalf("2^75 = %.3g, want ≈3.8e22", r.Patterns)
	}
	if r.Years < 1e9 {
		t.Fatalf("%.3g years, want over a billion", r.Years)
	}
	render(t, "exhaustive")
}

func TestExpRuleOfTen(t *testing.T) {
	r := experiments.RuleOfTen().(experiments.RuleOfTenResult)
	want := []float64{0.30, 3, 30, 300}
	for i := range want {
		if math.Abs(r.Costs[i]-want[i]) > 1e-9 {
			t.Fatalf("level %d: %.2f", i, r.Costs[i])
		}
	}
	render(t, "ruleoften")
}

func TestExpFig2Degating(t *testing.T) {
	r := experiments.Fig2Degating().(experiments.DegatingResult)
	if r.CC1After >= r.CC1Before {
		t.Fatalf("degating did not improve CC1: %d -> %d", r.CC1Before, r.CC1After)
	}
	if r.OscFreeRepeat {
		t.Fatal("free-running oscillator sessions should not repeat")
	}
	if !r.OscDegateRepeat {
		t.Fatal("degated sessions must repeat")
	}
	render(t, "fig02-03")
}

func TestExpFig4TestPoints(t *testing.T) {
	r := experiments.Fig4TestPoints().(experiments.TestPointResult)
	if r.COAfter > 1 || r.COBefore <= 1 {
		t.Fatalf("observation point: CO %d -> %d", r.COBefore, r.COAfter)
	}
	if r.Recs == 0 {
		t.Fatal("no test points recommended")
	}
}

func TestExpFig5BedOfNails(t *testing.T) {
	r := experiments.Fig5BedOfNails().(experiments.BedOfNailsResult)
	if r.EdgePass {
		t.Fatal("edge test should fail on the defective board")
	}
	if len(r.InCircuit) != 1 || r.InCircuit[0] != "ADD" {
		t.Fatalf("in-circuit isolation found %v, want [ADD]", r.InCircuit)
	}
	render(t, "fig05")
}

func TestExpFig6Bus(t *testing.T) {
	r := experiments.Fig6Bus().(experiments.BusResult)
	if len(r.HealthyFailures) != 0 {
		t.Fatalf("healthy bus failures %v", r.HealthyFailures)
	}
	if len(r.ModuleFailure) != 1 || r.ModuleFailure[0] != "RAM" {
		t.Fatalf("module isolation %v", r.ModuleFailure)
	}
	if !strings.Contains(r.StuckDiagnosis, "bus trace") {
		t.Fatalf("stuck diagnosis %q", r.StuckDiagnosis)
	}
	render(t, "fig06")
}

func TestExpFig7LFSR(t *testing.T) {
	r := experiments.Fig7LFSR().(experiments.Fig7Result)
	if r.Period != 7 {
		t.Fatalf("period %d, want 7", r.Period)
	}
	// The figure's canonical walk from 100.
	want := []uint64{0b010, 0b101, 0b011, 0b111, 0b110, 0b100, 0b001}
	for i, w := range want {
		if r.Sequences[0][i] != w {
			t.Fatalf("step %d: %03b, want %03b", i, r.Sequences[0][i], w)
		}
	}
	render(t, "fig07")
}

func TestExpFig8Signature(t *testing.T) {
	r := experiments.Fig8Signature().(experiments.Fig8Result)
	for i, w := range r.Widths {
		miss := 1 - r.CatchRates[i]
		if miss > 2.5*r.Theory[i]+0.01 {
			t.Fatalf("width %d: miss rate %.5f far above theory %.5f", w, miss, r.Theory[i])
		}
	}
	// 16-bit must be essentially perfect (paper: "extremely high").
	if r.CatchRates[len(r.CatchRates)-1] < 0.999 {
		t.Fatalf("16-bit catch rate %.5f", r.CatchRates[len(r.CatchRates)-1])
	}
	if r.Culprit != "ALU" {
		t.Fatalf("diagnosis culprit %q, want ALU", r.Culprit)
	}
	if !r.LoopRefusal {
		t.Fatal("looped board must be refused")
	}
	render(t, "fig08")
}

func TestExpFig12LSSD(t *testing.T) {
	r := experiments.Fig9to12LSSD().(experiments.LSSDResult)
	t.Log("\n" + r.Render())
	if r.ScanCoverage < 1.0 {
		t.Fatalf("scan coverage %.3f, want 1.0", r.ScanCoverage)
	}
	if r.SeqCoverage >= r.ScanCoverage {
		t.Fatalf("sequential %.3f should trail scan %.3f", r.SeqCoverage, r.ScanCoverage)
	}
	// Overheads: LSSD above mux-scan; both positive. The paper's 4-20%
	// band assumed large surrounding logic; our register-heavy bench
	// sits above it, and the ordering is the claim under test.
	if r.OverheadLSSD <= r.OverheadMux || r.OverheadMux <= 0 {
		t.Fatalf("overheads: lssd %.3f, mux %.3f", r.OverheadLSSD, r.OverheadMux)
	}
	if r.EndToEndChecks == 0 {
		t.Fatal("no faults verified through scan hardware")
	}
	if r.TesterCycles <= 0 {
		t.Fatal("serialization cost missing")
	}
}

// TestExpFig12LSSDRenderReproducible: two runs of Figs. 9–12 render
// byte-identical text, and the wall-clock ATPG time is not part of it.
func TestExpFig12LSSDRenderReproducible(t *testing.T) {
	a := experiments.Fig9to12LSSD().(experiments.LSSDResult)
	b := experiments.Fig9to12LSSD().(experiments.LSSDResult)
	if a.Render() != b.Render() {
		t.Fatalf("two runs render differently:\n%s\n%s", a.Render(), b.Render())
	}
	slow := a
	slow.ScanSecs += 1.5
	if slow.Render() != a.Render() {
		t.Fatal("the rendering depends on the wall-clock ScanSecs")
	}
}

func TestExpFig13Scanpath(t *testing.T) {
	r := experiments.Fig13Scanpath().(experiments.ScanPathResult)
	if !r.RaceSafe || r.RaceUnsafe {
		t.Fatalf("race analysis wrong: safe=%v unsafe=%v", r.RaceSafe, r.RaceUnsafe)
	}
	if !r.SelectedShifts || !r.BlockedOutput {
		t.Fatal("card selection behavior wrong")
	}
	if r.LargestAfter >= r.LargestBefore || r.BlockingFFsUsed == 0 {
		t.Fatalf("partition capping: %d -> %d with %d FFs",
			r.LargestBefore, r.LargestAfter, r.BlockingFFsUsed)
	}
	render(t, "fig13-14")
}

func TestExpFig15ScanSet(t *testing.T) {
	r := experiments.Fig15ScanSet().(experiments.ScanSetResult)
	if r.SnapshotValue != 5 {
		t.Fatalf("snapshot %d, want 5", r.SnapshotValue)
	}
	if r.MachineDisturbed {
		t.Fatal("snapshot disturbed the running machine")
	}
	if !(r.CovPrimary < r.CovPartial && r.CovPartial < r.CovFull && r.CovFull == 1.0) {
		t.Fatalf("coverage band violated: %.3f / %.3f / %.3f",
			r.CovPrimary, r.CovPartial, r.CovFull)
	}
}

func TestExpFig18RAS(t *testing.T) {
	r := experiments.Fig16to18RAS().(experiments.RASResult)
	if r.GatesPerLatch < 3 || r.GatesPerLatch > 4 {
		t.Fatalf("gates/latch %.1f outside 3-4", r.GatesPerLatch)
	}
	if r.Pins < 10 || r.Pins > 20 || r.PinsSerialized != 6 {
		t.Fatalf("pins %d / serialized %d", r.Pins, r.PinsSerialized)
	}
	if r.SingleOpCost != 1 || r.SerialCost != 64 {
		t.Fatalf("access cost %d vs %d", r.SingleOpCost, r.SerialCost)
	}
	render(t, "fig16-18")
}

func TestExpFig19Modes(t *testing.T) {
	r := experiments.Fig19to21BILBO().(experiments.BILBOResult)
	t.Log("\n" + r.Render())
	if !r.FaultCaught {
		t.Fatal("BILBO self-test missed the injected fault")
	}
	// Coverage grows with pattern count up to MISR aliasing noise
	// (±2^-8 per fault), and is high at the top of the curve.
	first := r.CoverageCurve[0].Coverage
	top := r.CoverageCurve[len(r.CoverageCurve)-1].Coverage
	if top < 0.95 {
		t.Fatalf("long-session coverage %.3f", top)
	}
	if first > top+0.05 {
		t.Fatalf("coverage curve inverted: %.3f at %d patterns vs %.3f at %d",
			first, r.CoverageCurve[0].Patterns, top, r.CoverageCurve[len(r.CoverageCurve)-1].Patterns)
	}
	if r.DataVolumeScan/r.DataVolumeBILBO != 100 {
		t.Fatalf("data volume factor %d, want 100", r.DataVolumeScan/r.DataVolumeBILBO)
	}
}

func TestExpFig22PLA(t *testing.T) {
	r := experiments.Fig22PLA().(experiments.PLAResult)
	t.Log("\n" + r.Render())
	for _, p := range r.Series {
		if p.PLACov >= p.RandomCov {
			t.Fatalf("at %d patterns PLA %.3f should trail random logic %.3f",
				p.Patterns, p.PLACov, p.RandomCov)
		}
	}
	// "Random combinational logic networks with maximum fan-in of 4 can
	// do quite well with random patterns" — coverage saturates high
	// (the residue is dominated by genuinely redundant faults in the
	// random network), while the PLA stays an order of magnitude below.
	last := r.Series[len(r.Series)-1]
	if last.RandomCov < 0.8 {
		t.Fatalf("fan-in-4 logic coverage %.3f, want >= 0.8", last.RandomCov)
	}
	if last.PLACov > 0.85 {
		t.Fatalf("PLA coverage %.3f unexpectedly high at %d patterns", last.PLACov, last.Patterns)
	}
}

func TestExpFig23Syndrome(t *testing.T) {
	r := experiments.Fig23Syndrome().(experiments.SyndromeResult)
	if r.MuxUntestable == 0 {
		t.Fatal("mux must exhibit syndrome-untestable faults")
	}
	if r.AfterRemaining != 0 || r.ExtraInputs == 0 || r.ExtraInputs > 2 {
		t.Fatalf("MakeTestable: %d extra inputs, %d remaining (paper: at most 1-2 inputs)",
			r.ExtraInputs, r.AfterRemaining)
	}
	render(t, "fig23")
}

func TestExpTableIWalsh(t *testing.T) {
	r := experiments.TableIWalsh().(experiments.WalshResult)
	t.Log("\n" + r.Render())
	if len(r.Rows) != 8 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.CAll != -4 || r.C0 != 0 {
		t.Fatalf("C_all=%d C_0=%d, want -4/0", r.CAll, r.C0)
	}
	if r.InputDetected != r.InputChecked || r.InputChecked != 6 {
		t.Fatalf("input theorem: %d/%d", r.InputDetected, r.InputChecked)
	}
	if r.Coverage < 0.9 {
		t.Fatalf("two-coefficient coverage %.3f", r.Coverage)
	}
}

func TestExpFig26Module(t *testing.T) {
	r := experiments.Fig26Module().(experiments.ModuleResult)
	if r.GenStates != 7 || !r.SigChanged {
		t.Fatalf("module result %+v", r)
	}
	render(t, "fig26-29")
}

func TestExpFig30Mux(t *testing.T) {
	r := experiments.Fig30Mux().(experiments.MuxPartResult)
	if r.After >= r.Before {
		t.Fatalf("mux partitioning: %d -> %d", r.Before, r.After)
	}
	if float64(r.Before)/float64(r.After) < 4 {
		t.Fatalf("reduction factor %.1f too small", float64(r.Before)/float64(r.After))
	}
	if r.Coverage < 0.95 {
		t.Fatalf("executed partitioned test coverage %.3f", r.Coverage)
	}
	if r.Applied*32 > r.Before {
		t.Fatalf("executed test used %d patterns, not ≪ %d", r.Applied, r.Before)
	}
	render(t, "fig30-32")
}

func TestExpFig33Sensitized(t *testing.T) {
	r := experiments.Fig33Sensitized().(experiments.SensitizedResult)
	t.Log("\n" + r.Render())
	if r.Report.N1Coverage() < 1.0 {
		t.Fatalf("N1 coverage %.3f", r.Report.N1Coverage())
	}
	if r.Report.TotalCoverage() < 0.9 {
		t.Fatalf("total coverage %.3f", r.Report.TotalCoverage())
	}
	if r.Report.Patterns*100 > r.Report.ExhaustiveSize {
		t.Fatalf("pattern count %d not ≪ exhaustive %d", r.Report.Patterns, r.Report.ExhaustiveSize)
	}
}

func TestExpSCOAP(t *testing.T) {
	r := experiments.SCOAPMeasures().(experiments.SCOAPResult)
	if len(r.Rows) < 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	var c17, mult8 int
	for _, row := range r.Rows {
		switch row.Circuit {
		case "c17":
			c17 = row.Summary.MaxCO
		case "mult8":
			mult8 = row.Summary.MaxCO
		}
	}
	if mult8 <= c17 {
		t.Fatalf("mult8 CO %d should exceed c17 CO %d", mult8, c17)
	}
	render(t, "scoap")
}
