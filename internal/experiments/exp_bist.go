package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/syndrome"
	"dft/internal/walsh"
)

// BILBOResult covers Figs. 19–21.
type BILBOResult struct {
	ModeDemo      [4]string
	Sig1, Sig2    uint64
	FaultCaught   bool
	CoverageCurve []struct {
		Patterns int
		Coverage float64
	}
	DataVolumeScan  int
	DataVolumeBILBO int
}

// Render prints modes, signatures, and the coverage series.
func (r BILBOResult) Render() string {
	t := &text{title: "Figs. 19–21 — BILBO: modes and two-network self-test"}
	tb := &table{header: []string{"B1B2", "mode", "behavior check"}}
	tb.add("11", "system register", r.ModeDemo[0])
	tb.add("00", "scan shift (via inverters)", r.ModeDemo[1])
	tb.add("10", "MISR / PN generator", r.ModeDemo[2])
	tb.add("01", "reset", r.ModeDemo[3])
	t.addTable(tb)
	t.addf("golden session signatures: C1 phase %#x, C2 phase %#x", r.Sig1, r.Sig2)
	t.addf("injected fault caught by signature mismatch: %v", r.FaultCaught)
	cv := &table{header: []string{"PN patterns", "fault coverage"}}
	for _, p := range r.CoverageCurve {
		cv.add(fmt.Sprint(p.Patterns), fmt.Sprintf("%.1f%%", p.Coverage*100))
	}
	t.addTable(cv)
	t.addf("test data volume for 100 patterns: scan %d bits vs BILBO %d bits (factor %d; paper: 100)",
		r.DataVolumeScan, r.DataVolumeBILBO, r.DataVolumeScan/r.DataVolumeBILBO)
	return t.Render()
}

// Fig19to21BILBO runs the BILBO experiments.
func Fig19to21BILBO() Result {
	var r BILBOResult
	// Mode demos.
	reg := bilbo.NewRegister(8)
	z := []bool{true, false, true, false, true, false, true, false}
	reg.Clock(bilbo.ModeSystem, z, false)
	r.ModeDemo[0] = fmt.Sprintf("loaded %#02x", reg.QWord())
	reg.Clock(bilbo.ModeShift, nil, true)
	r.ModeDemo[1] = fmt.Sprintf("shifted, Q=%#02x", reg.QWord())
	reg.Clock(bilbo.ModeSignature, z, false)
	r.ModeDemo[2] = fmt.Sprintf("compressed, Q=%#02x", reg.QWord())
	reg.Clock(bilbo.ModeReset, nil, false)
	r.ModeDemo[3] = fmt.Sprintf("cleared, Q=%#02x", reg.QWord())

	c1 := circuits.RippleAdder(3)
	c2 := circuits.ParityTree(8)
	st := bilbo.NewSelfTest(c1, c2, 8, 8, 200)
	r.Sig1, r.Sig2 = st.GoodSignatures()
	s0, _ := c1.NetByName("S0")
	r.FaultCaught = st.Detects(1, fault.Fault{Gate: s0, Pin: fault.Stem, SA: logic.One})

	cl := fault.Collapse(c1)
	for _, n := range []int{8, 32, 128, 512} {
		stN := bilbo.NewSelfTest(c1, c2, 8, 8, n)
		cs := stN.MeasureCoverage(cl.Reps)
		r.CoverageCurve = append(r.CoverageCurve, struct {
			Patterns int
			Coverage float64
		}{n, cs.Coverage()})
	}
	r.DataVolumeScan, r.DataVolumeBILBO = bilbo.DataVolume(100, 100)
	return r
}

// PLAResult covers Fig. 22.
type PLAResult struct {
	Series []struct {
		Patterns  int
		PLACov    float64
		RandomCov float64
	}
	ProductWidth int
}

// Render prints the random-pattern resistance series.
func (r PLAResult) Render() string {
	t := &text{title: "Fig. 22 — PLAs resist random patterns (wide AND fan-in)"}
	tb := &table{header: []string{"patterns", "PLA coverage", "fan-in-4 logic coverage"}}
	for _, p := range r.Series {
		tb.add(fmt.Sprint(p.Patterns), fmt.Sprintf("%.1f%%", p.PLACov*100), fmt.Sprintf("%.1f%%", p.RandomCov*100))
	}
	t.addTable(tb)
	t.addf("each %d-literal product term fires with probability 2^-%d per random pattern",
		r.ProductWidth, r.ProductWidth)
	return t.Render()
}

// Fig22PLA runs the PLA-vs-random-logic coverage curves.
func Fig22PLA() Result {
	rng := rand.New(rand.NewSource(7))
	pla := circuits.RandomPLA(rng, 20, 8, 4, 20)
	nice := circuits.RandomCircuit(rng, 20, 120, 4, 4)
	plaF := fault.Collapse(pla).Reps
	niceF := fault.Collapse(nice).Reps
	r := PLAResult{ProductWidth: 20}
	for _, n := range []int{64, 256, 1024, 4096} {
		pats := randomPatterns(20, n, int64(n))
		pr, _ := fault.Simulate(context.Background(), pla, plaF, pats, fault.Options{})
		nr, _ := fault.Simulate(context.Background(), nice, niceF, pats, fault.Options{})
		r.Series = append(r.Series, struct {
			Patterns  int
			PLACov    float64
			RandomCov float64
		}{n, pr.Coverage(), nr.Coverage()})
	}
	return r
}

// SyndromeResult covers Fig. 23.
type SyndromeResult struct {
	GateSyndromes  []string
	MuxUntestable  int
	ExtraInputs    int
	AfterRemaining int
	DataWords      int
	FullBits       int
}

// Render prints the syndrome experiments.
func (r SyndromeResult) Render() string {
	t := &text{title: "Fig. 23 — syndrome testing"}
	t.addf("elementary syndromes: %v", r.GateSyndromes)
	t.addf("2:1 mux: %d detectable-but-syndrome-untestable fault class(es)", r.MuxUntestable)
	t.addf("after adding %d held extra input(s): %d remain (paper: at most 1-2 inputs for real networks)",
		r.ExtraInputs, r.AfterRemaining)
	t.addf("test data volume: %d count word(s) vs %d raw response bits", r.DataWords, r.FullBits)
	return t.Render()
}

// Fig23Syndrome runs the syndrome experiments.
func Fig23Syndrome() Result {
	var r SyndromeResult
	// Elementary syndromes.
	c := circuits.RippleAdder(1)
	_, syn := syndrome.Syndromes(c)
	r.GateSyndromes = append(r.GateSyndromes,
		fmt.Sprintf("adder1 S0=%.2f", syn[0]), fmt.Sprintf("adder1 COUT=%.2f", syn[1]))

	mux := circuits.Mux(1)
	cl := fault.Collapse(mux)
	un := syndrome.Untestable(syndrome.Classify(mux, cl.Reps))
	r.MuxUntestable = len(un)
	_, added, remaining := syndrome.MakeTestable(mux, 2)
	r.ExtraInputs = added
	r.AfterRemaining = remaining
	r.DataWords, r.FullBits = syndrome.DataVolume(circuits.RippleAdder(4))
	return r
}

// WalshResult covers Table I and Fig. 25.
type WalshResult struct {
	Rows          []walsh.TableIRow
	CAll          int
	C0            int
	InputChecked  int
	InputDetected int
	Coverage      float64
}

// Render prints the table and the two-coefficient results.
func (r WalshResult) Render() string {
	t := &text{title: "Table I / Figs. 24–25 — testing by verifying Walsh coefficients"}
	tb := &table{header: []string{"x1x2x3", "W2", "W1,3", "F", "W2F", "W13F", "WALL", "WALLF"}}
	for _, row := range r.Rows {
		tb.add(fmt.Sprintf("%d%d%d", row.X1, row.X2, row.X3),
			fmt.Sprintf("%+d", row.W2), fmt.Sprintf("%+d", row.W13), fmt.Sprint(row.F),
			fmt.Sprintf("%+d", row.W2F), fmt.Sprintf("%+d", row.W13F),
			fmt.Sprintf("%+d", row.WAll), fmt.Sprintf("%+d", row.WAllF))
	}
	t.addTable(tb)
	t.addf("note: the paper's printed WALLF column is inconsistent with its own WALL·F± convention;")
	t.addf("we print the consistent values (Σ WAllF = ±|C_all| = 4 for the Fig. 24 majority).")
	t.addf("measured C_all = %d, C_0 = %d", r.CAll, r.C0)
	t.addf("input stuck-at theorem: %d/%d primary-input faults detected via C_all", r.InputDetected, r.InputChecked)
	t.addf("two-coefficient tester coverage on all collapsed faults: %.1f%%", r.Coverage*100)
	return t.Render()
}

// TableIWalsh runs the Walsh experiments.
func TableIWalsh() Result {
	c := circuits.Majority(3)
	checked, detected, _ := walsh.InputFaultTheorem(c, 0)
	cl := fault.Collapse(c)
	return WalshResult{
		Rows:          walsh.TableI(),
		CAll:          walsh.CAll(c, 0, nil),
		C0:            walsh.C0(c, 0, nil),
		InputChecked:  checked,
		InputDetected: detected,
		Coverage:      walsh.FaultCoverage(c, cl.Reps),
	}
}

func init() {
	register("fig19-21", "Figs. 19-21: BILBO self-test", Fig19to21BILBO)
	register("fig22", "Fig. 22: PLA random-pattern resistance", Fig22PLA)
	register("fig23", "Fig. 23: syndrome testing", Fig23Syndrome)
	register("tableI", "Table I / Figs. 24-25: Walsh coefficients", TableIWalsh)
}
