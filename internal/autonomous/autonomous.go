// Package autonomous implements Design for Autonomous Test (McCluskey
// & Bozorgui-Nesbat [118]; Figs. 26–34): exhaustive self-testing with
// reconfigurable LFSR modules, and the two partitioning schemes —
// multiplexer partitioning and sensitized partitioning — that keep the
// exhaustive pattern count tractable, demonstrated on the 74181 ALU as
// in the paper.
package autonomous

import (
	"context"
	"fmt"
	"strings"

	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
)

// Module is the reconfigurable 3-bit LFSR module of Figs. 26–29.
// Controls: N=1 selects normal register operation; N=0 selects test
// modes — S=1 signature analyzer (MISR), S=0 input generator (PRPG).
// Its latches are one lfsr.MISR word: bit i is latch Q(i+1).
type Module struct {
	reg *lfsr.MISR
}

// NewModule builds a width-bit module (the figures use 3).
func NewModule(width int) *Module {
	return &Module{reg: lfsr.NewMISR(width, width)}
}

// Q returns the latch outputs.
func (m *Module) Q() []bool { return lfsr.UnpackBits(m.reg.State(), m.reg.Width()) }

// QWord packs the outputs.
func (m *Module) QWord() uint64 { return m.reg.State() }

// SetQ loads the latches.
func (m *Module) SetQ(vals []bool) {
	if len(vals) != m.reg.Width() {
		panic(fmt.Sprintf("autonomous: SetQ with %d values for width %d", len(vals), m.reg.Width()))
	}
	m.reg.SetState(lfsr.PackBits(vals))
}

// Clock advances the module: n=true is normal operation (load data);
// n=false, s=true is signature analysis (MISR of data); n=false,
// s=false is input generation (pure LFSR, data ignored).
func (m *Module) Clock(n, s bool, data []bool) {
	if data != nil && len(data) != m.reg.Width() {
		panic(fmt.Sprintf("autonomous: %d data values for width %d", len(data), m.reg.Width()))
	}
	switch {
	case n:
		m.reg.SetState(lfsr.PackBits(data))
	case s:
		m.reg.Clock(lfsr.PackBits(data))
	default:
		m.reg.Clock(0)
	}
}

// Generate runs the module as an input generator for k clocks,
// returning the successive Q words — the exhaustive (maximal-length)
// stimulus source of autonomous testing.
func (m *Module) Generate(k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		m.reg.Clock(0)
		out[i] = m.reg.State()
	}
	return out
}

// Compress runs the module as a signature analyzer over the data
// words.
func (m *Module) Compress(words [][]bool) uint64 {
	for _, w := range words {
		m.Clock(false, true, w)
	}
	return m.QWord()
}

// --- Multiplexer partitioning (Figs. 30–32) ---

// MuxPartition is the result of inserting test multiplexers at a cut:
// in normal mode (TMODE=0) the circuit is unchanged; in test mode the
// cut nets are driven from new TESTIN pins, and the cut nets are
// observable on new TPOUT pins, so the downstream partition is
// exhaustively testable on its own (much smaller) input space.
type MuxPartition struct {
	C       *logic.Circuit
	TMode   int   // PI
	TestIns []int // PI per cut net
	CutObs  []int // PO per cut net
	Cut     []int // the original cut nets
}

// PartitionWithMux inserts multiplexers at the given cut nets.
func PartitionWithMux(c *logic.Circuit, cut []int) *MuxPartition {
	nc := c.Clone()
	mp := &MuxPartition{Cut: append([]int(nil), cut...)}
	mp.TMode = nc.AddInput("TMODE")
	ntm := nc.AddGate(logic.Not, "TMODE_N", mp.TMode)
	for _, net := range cut {
		base := c.NameOf(net)
		ti := nc.AddInput(fmt.Sprintf("TESTIN_%s", base))
		mp.TestIns = append(mp.TestIns, ti)
		norm := nc.AddGate(logic.And, fmt.Sprintf("TMN_%s", base), net, ntm)
		test := nc.AddGate(logic.And, fmt.Sprintf("TMT_%s", base), ti, mp.TMode)
		muxed := nc.AddGate(logic.Or, fmt.Sprintf("TMX_%s", base), norm, test)
		for id := range nc.Gates {
			if id == norm || id == muxed {
				continue
			}
			for i, src := range nc.Gates[id].Fanin {
				if src == net {
					nc.Gates[id].Fanin[i] = muxed
				}
			}
		}
		for i, po := range nc.POs {
			if po == net {
				nc.POs[i] = muxed
			}
		}
		obs := nc.AddGate(logic.Buf, fmt.Sprintf("TPOUT_%s", base), net)
		nc.MarkOutput(obs)
		mp.CutObs = append(mp.CutObs, obs)
	}
	nc.MustFinalize()
	mp.C = nc
	return mp
}

// ExhaustiveCost compares the exhaustive pattern counts: unpartitioned
// 2ⁿ versus the sum of the two partitions' exhaustive spaces
// (upstream: original PIs; downstream: TESTINs plus the PIs feeding
// the downstream cone).
func (mp *MuxPartition) ExhaustiveCost(orig *logic.Circuit) (before, after int) {
	before = 1 << uint(len(orig.PIs))
	upstream := 1 << uint(len(orig.PIs)) // bounded by PIs feeding the cut cones
	// Tighter upstream bound: PIs in the transitive fanin of the cut.
	seen := map[int]bool{}
	var walk func(n int)
	count := 0
	walk = func(n int) {
		if seen[n] {
			return
		}
		seen[n] = true
		g := orig.Gates[n]
		if g.Type == logic.Input {
			count++
			return
		}
		for _, f := range g.Fanin {
			walk(f)
		}
	}
	for _, net := range mp.Cut {
		walk(net)
	}
	upstream = 1 << uint(count)
	// Downstream: cut width plus PIs read below the cut. Conservative:
	// all original PIs may also feed downstream.
	downPIs := map[int]bool{}
	inCut := map[int]bool{}
	for _, n := range mp.Cut {
		inCut[n] = true
	}
	var mark func(n int)
	reach := map[int]bool{}
	mark = func(n int) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, r := range orig.Fanout[n] {
			mark(r)
		}
	}
	for _, n := range mp.Cut {
		for _, r := range orig.Fanout[n] {
			mark(r)
		}
	}
	for _, pi := range orig.PIs {
		for _, r := range orig.Fanout[pi] {
			if reach[r] {
				downPIs[pi] = true
			}
		}
	}
	downstream := 1 << uint(len(mp.Cut)+len(downPIs))
	after = upstream + downstream
	return before, after
}

// upstreamPIs lists the original PIs in the transitive fanin of the
// cut, and downstreamPIs those feeding the logic below the cut.
func (mp *MuxPartition) regionPIs(orig *logic.Circuit) (up, down []int) {
	inCone := map[int]bool{}
	var walk func(n int)
	walk = func(n int) {
		if inCone[n] {
			return
		}
		inCone[n] = true
		for _, f := range orig.Gates[n].Fanin {
			walk(f)
		}
	}
	for _, n := range mp.Cut {
		walk(n)
	}
	reach := map[int]bool{}
	var mark func(n int)
	mark = func(n int) {
		if reach[n] {
			return
		}
		reach[n] = true
		for _, r := range orig.Fanout[n] {
			mark(r)
		}
	}
	for _, n := range mp.Cut {
		for _, r := range orig.Fanout[n] {
			mark(r)
		}
	}
	downSet := map[int]bool{}
	var back func(n int)
	back = func(n int) {
		if downSet[n] {
			return
		}
		downSet[n] = true
		for _, f := range orig.Gates[n].Fanin {
			cut := false
			for _, cn := range mp.Cut {
				if cn == f {
					cut = true
				}
			}
			if !cut {
				back(f)
			}
		}
	}
	for n := range reach {
		back(n)
	}
	for i, pi := range orig.PIs {
		_ = i
		if inCone[pi] {
			up = append(up, pi)
		}
		if downSet[pi] {
			down = append(down, pi)
		}
	}
	return up, down
}

// TestPatterns builds the two-phase autonomous test over the modified
// circuit's inputs: an upstream phase (TMODE=0, exhaustive over the
// PIs feeding the cut, observed at the TPOUT pins) and a downstream
// phase (TMODE=1, exhaustive over TESTIN plus the downstream PIs).
// The combined set exercises both partitions exhaustively at a cost of
// 2^|up| + 2^|down+cut| patterns instead of 2^n.
func (mp *MuxPartition) TestPatterns(orig *logic.Circuit) [][]bool {
	up, down := mp.regionPIs(orig)
	nIn := len(mp.C.PIs)
	tmodeIdx := -1
	testinIdx := make([]int, 0, len(mp.TestIns))
	origIdx := map[int]int{} // original PI net -> position in mp.C.PIs
	for i, pi := range mp.C.PIs {
		switch {
		case pi == mp.TMode:
			tmodeIdx = i
		case contains(mp.TestIns, pi):
			testinIdx = append(testinIdx, i)
		default:
			origIdx[pi] = i
		}
	}
	var pats [][]bool
	// Upstream phase.
	for x := 0; x < 1<<uint(len(up)); x++ {
		p := make([]bool, nIn)
		for b, pi := range up {
			p[origIdx[pi]] = x>>uint(b)&1 == 1
		}
		pats = append(pats, p)
	}
	// Downstream phase.
	free := append([]int{}, testinIdx...)
	for _, pi := range down {
		free = append(free, origIdx[pi])
	}
	for x := 0; x < 1<<uint(len(free)); x++ {
		p := make([]bool, nIn)
		p[tmodeIdx] = true
		for b, idx := range free {
			p[idx] = x>>uint(b)&1 == 1
		}
		pats = append(pats, p)
	}
	return pats
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// PackedTestPatterns is TestPatterns built directly in packed PPSFP
// form: each phase's enumeration is synthesized block-at-a-time from
// periodic bit masks (with a scalar fallback when a phase starts
// mid-block), so the pattern sequence is identical to TestPatterns
// without materializing 2^N scalar vectors.
func (mp *MuxPartition) PackedTestPatterns(orig *logic.Circuit) *fault.PackedPatterns {
	up, down := mp.regionPIs(orig)
	tmodeIdx := -1
	testinIdx := make([]int, 0, len(mp.TestIns))
	origIdx := map[int]int{}
	for i, pi := range mp.C.PIs {
		switch {
		case pi == mp.TMode:
			tmodeIdx = i
		case contains(mp.TestIns, pi):
			testinIdx = append(testinIdx, i)
		default:
			origIdx[pi] = i
		}
	}
	pp := fault.NewPackedPatterns(len(mp.C.PIs))
	// Upstream phase: enumerate the upstream original inputs.
	upFree := make([]int, len(up))
	for b, pi := range up {
		upFree[b] = origIdx[pi]
	}
	pp.AppendEnum(upFree, nil)
	// Downstream phase: TMode held at 1, test inputs then downstream
	// original inputs enumerated.
	free := append([]int{}, testinIdx...)
	for _, pi := range down {
		free = append(free, origIdx[pi])
	}
	pp.AppendEnum(free, []int{tmodeIdx})
	return pp
}

// RunAutonomousTest applies the two-phase set to the partitioned
// circuit and fault-grades the faults on the ORIGINAL logic (net IDs
// are preserved by the insertion).
func (mp *MuxPartition) RunAutonomousTest(orig *logic.Circuit) (coverage float64, patterns int) {
	cl := fault.Collapse(orig)
	var targets []fault.Fault
	for _, f := range cl.Reps {
		if f.Gate < orig.NumNets() {
			targets = append(targets, f)
		}
	}
	pats := mp.PackedTestPatterns(orig)
	res, _ := fault.NewEngine(mp.C, fault.Options{}).RunPacked(context.Background(), targets, pats)
	return res.Coverage(), pats.NumPatterns()
}

// --- Sensitized partitioning of the 74181 (Figs. 33–34) ---

// SensitizedReport summarizes the 74181 sensitized-partitioning
// experiment.
type SensitizedReport struct {
	Patterns       int
	ExhaustiveSize int
	N1Faults       int
	N1Detected     int
	TotalFaults    int
	TotalDetected  int
}

// N1Coverage returns detected/total over the N1 subnetworks.
func (r SensitizedReport) N1Coverage() float64 {
	if r.N1Faults == 0 {
		return 0
	}
	return float64(r.N1Detected) / float64(r.N1Faults)
}

// TotalCoverage returns overall coverage.
func (r SensitizedReport) TotalCoverage() float64 {
	if r.TotalFaults == 0 {
		return 0
	}
	return float64(r.TotalDetected) / float64(r.TotalFaults)
}

// IsN1Gate reports whether a 74181 net belongs to one of the four N1
// first-level subnetworks (the per-bit L/H clusters of Fig. 33).
func IsN1Gate(c *logic.Circuit, id int) bool {
	name := c.NameOf(id)
	for _, p := range []string{"NB", "LT1_", "LT2_", "L", "HT1_", "HT2_", "H"} {
		if strings.HasPrefix(name, p) {
			// Guard against N2 names (LH, NC...) sharing a prefix.
			if strings.HasPrefix(name, "LH") || strings.HasPrefix(name, "NC") {
				return false
			}
			return true
		}
	}
	return false
}

// SensitizedPatterns builds the paper's sensitized test set for the
// 74181 (inputs packed A0..3,B0..3,S0..3,M,CN):
//
//   - L phase: hold S2=S3=0 (each Hᵢ pinned to 1) and M=1; every Lᵢ then
//     appears directly on Fᵢ. Sweep S0,S1 and per-bit Aᵢ,Bᵢ — 16
//     patterns exercise all four N1 L-sides exhaustively in parallel.
//   - H phase: hold S0=S1=1 (each Lᵢ pinned to 0) and M=1; every Hᵢ
//     appears complemented on Fᵢ. Sweep S2,S3,Aᵢ,Bᵢ — 16 patterns.
//   - N2 phase: a carry-exercising sweep in arithmetic mode (S=1001,
//     S=0110) walking operand and carry values.
func SensitizedPatterns() [][]bool {
	var pats [][]bool
	mk := func(a, b, s uint, m, cn bool) []bool {
		p := make([]bool, 14)
		for i := 0; i < 4; i++ {
			p[i] = a>>uint(i)&1 == 1
			p[4+i] = b>>uint(i)&1 == 1
			p[8+i] = s>>uint(i)&1 == 1
		}
		p[12] = m
		p[13] = cn
		return p
	}
	// L phase: S2=S3=0; all (S0,S1) × (A,B) per-bit combinations, A and
	// B replicated across bits so every N1 module sees the same cube.
	for s01 := uint(0); s01 < 4; s01++ {
		for ab := uint(0); ab < 4; ab++ {
			a := uint(0)
			b := uint(0)
			if ab&1 != 0 {
				a = 0xF
			}
			if ab&2 != 0 {
				b = 0xF
			}
			pats = append(pats, mk(a, b, s01, true, false))
		}
	}
	// H phase: S0=S1=1; all (S2,S3) × (A,B).
	for s23 := uint(0); s23 < 4; s23++ {
		for ab := uint(0); ab < 4; ab++ {
			a := uint(0)
			b := uint(0)
			if ab&1 != 0 {
				a = 0xF
			}
			if ab&2 != 0 {
				b = 0xF
			}
			pats = append(pats, mk(a, b, 0x3|s23<<2, true, false))
		}
	}
	// N2 phase: arithmetic carries. Walk add and subtract with
	// diagonal operands and both carry polarities.
	for _, s := range []uint{0x9, 0x6} {
		for _, cn := range []bool{false, true} {
			for a := uint(0); a < 16; a++ {
				pats = append(pats, mk(a, 15-a, s, false, cn))
				pats = append(pats, mk(a, a, s, false, cn))
			}
		}
	}
	return pats
}

// RunSensitized74181 applies the sensitized pattern set to the
// gate-level 74181 and fault-grades it.
func RunSensitized74181(c *logic.Circuit) SensitizedReport {
	cl := fault.Collapse(c)
	pats := SensitizedPatterns()
	res, _ := fault.Simulate(context.Background(), c, cl.Reps, pats, fault.Options{})
	rep := SensitizedReport{
		Patterns:       len(pats),
		ExhaustiveSize: 1 << uint(len(c.PIs)),
		TotalFaults:    len(cl.Reps),
		TotalDetected:  res.NumCaught,
	}
	for i, f := range cl.Reps {
		if IsN1Gate(c, f.Gate) {
			rep.N1Faults++
			if res.Detected[i] {
				rep.N1Detected++
			}
		}
	}
	return rep
}
