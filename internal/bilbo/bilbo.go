// Package bilbo implements Built-In Logic Block Observation (Koenemann,
// Mucha & Zwiehoff [25]; Figs. 19–21): a register that acts as a system
// register (B1B2=11), a scan shift register (00), a multiple-input
// signature register / pseudo-random pattern generator (10), or resets
// (01) — and the two-network self-test architecture built from a pair
// of them.
package bilbo

import (
	"fmt"

	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
	"dft/internal/sim"
)

// Mode is the B1B2 control encoding of Fig. 19.
type Mode int

const (
	ModeSystem    Mode = iota // B1B2 = 11: parallel load from Z inputs
	ModeShift                 // B1B2 = 00: serial scan path (through inverters)
	ModeSignature             // B1B2 = 10: MISR; with fixed Z, a PN generator
	ModeReset                 // B1B2 = 01: clear
)

// Register is an n-bit BILBO register with the maximal-length feedback
// of its width.
type Register struct {
	n       int
	taps    []int
	latches []bool
}

// NewRegister builds an n-bit BILBO register.
func NewRegister(n int) *Register {
	taps, err := lfsr.MaximalTaps(n)
	if err != nil {
		panic(err)
	}
	return &Register{n: n, taps: taps, latches: make([]bool, n)}
}

// Width returns the register width.
func (r *Register) Width() int { return r.n }

// Q returns the latch outputs (Q1..Qn as Q[0..n-1]).
func (r *Register) Q() []bool { return append([]bool(nil), r.latches...) }

// QWord packs the outputs into a word (bit i = latch i).
func (r *Register) QWord() uint64 {
	var w uint64
	for i, b := range r.latches {
		if b {
			w |= 1 << uint(i)
		}
	}
	return w
}

// SetQ loads the latches directly (test setup helper).
func (r *Register) SetQ(vals []bool) {
	if len(vals) != r.n {
		panic(fmt.Sprintf("bilbo: SetQ with %d values for width %d", len(vals), r.n))
	}
	copy(r.latches, vals)
}

// feedback XORs the tap outputs.
func (r *Register) feedback() bool {
	fb := false
	for _, t := range r.taps {
		fb = fb != r.latches[t-1]
	}
	return fb
}

// Clock advances the register one clock in the given mode. z supplies
// the parallel inputs Z1..Zn (required for ModeSystem and
// ModeSignature; pass nil to hold them at 0, the PN-generation
// configuration). scanIn feeds the serial input in ModeShift. The
// return value is the scan output Qn.
func (r *Register) Clock(mode Mode, z []bool, scanIn bool) bool {
	if z != nil && len(z) != r.n {
		panic(fmt.Sprintf("bilbo: %d Z values for width %d", len(z), r.n))
	}
	zi := func(i int) bool {
		if z == nil {
			return false
		}
		return z[i]
	}
	switch mode {
	case ModeSystem:
		for i := range r.latches {
			r.latches[i] = zi(i)
		}
	case ModeShift:
		// Fig. 19(c): the scan path runs through inverters.
		prev := !scanIn
		for i := 0; i < r.n; i++ {
			next := !r.latches[i]
			r.latches[i] = prev
			prev = next
		}
	case ModeSignature:
		// Fig. 19(d): L1 <- Z1 ⊕ feedback; Li <- Zi ⊕ L(i-1).
		fb := r.feedback()
		prev := r.latches[0]
		r.latches[0] = zi(0) != fb
		for i := 1; i < r.n; i++ {
			cur := r.latches[i]
			r.latches[i] = zi(i) != prev
			prev = cur
		}
	case ModeReset:
		for i := range r.latches {
			r.latches[i] = false
		}
	}
	return r.latches[r.n-1]
}

// Signature returns the register contents as a word — the residue read
// out after a signature session.
func (r *Register) Signature() uint64 { return r.QWord() }

// ScanOutAll switches to shift mode and unloads the register serially,
// returning the pre-shift contents in latch order (compensating the
// scan-path inverters).
func (r *Register) ScanOutAll() []bool {
	out := make([]bool, r.n)
	// After k shifts, Qn carries the original latch n-1-k value
	// complemented (n-1-k) times... read pre-shift instead: strobe Qn,
	// then shift. Each shift complements as values move, so compensate
	// by tracking the inversion count per emitted bit.
	for k := 0; k < r.n; k++ {
		raw := r.latches[r.n-1]
		// The value now at Qn started at position n-1-k and was
		// complemented k times on its way.
		if k%2 == 1 {
			raw = !raw
		}
		out[r.n-1-k] = raw
		r.Clock(ModeShift, nil, false)
	}
	return out
}

// PNSequence runs the register as a pseudo-random pattern generator
// (signature mode, Z held at zero) for k clocks, returning the Q words
// — the "Pseudo Random Patterns (PN)" of the paper.
func (r *Register) PNSequence(k int) []uint64 {
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		r.Clock(ModeSignature, nil, false)
		out[i] = r.QWord()
	}
	return out
}

// SelfTest is the Fig. 20/21 architecture: BILBO register R1 feeds
// combinational network C1 into BILBO register R2, which feeds C2 back
// into R1.
type SelfTest struct {
	C1, C2   *logic.Circuit
	R1, R2   *Register
	Patterns int // PN patterns per session
	Seed     uint64
}

// NewSelfTest wires the two networks. C1's input count must not exceed
// R1's width and its output count must not exceed R2's width (and
// symmetrically for C2).
func NewSelfTest(c1, c2 *logic.Circuit, w1, w2, patterns int) *SelfTest {
	if len(c1.PIs) > w1 || len(c1.POs) > w2 {
		panic("bilbo: C1 does not fit the register widths")
	}
	if len(c2.PIs) > w2 || len(c2.POs) > w1 {
		panic("bilbo: C2 does not fit the register widths")
	}
	return &SelfTest{
		C1: c1, C2: c2,
		R1: NewRegister(w1), R2: NewRegister(w2),
		Patterns: patterns, Seed: 1,
	}
}

// sessionLen clamps a session to the PN generator's period. Beyond
// 2^w - 1 clocks the generator repeats, and because the MISR's update
// matrix A satisfies A^period = I, the error contributions of a
// repeated pattern cancel pairwise — extra patterns would *erase*
// accumulated fault effects rather than add coverage.
func sessionLen(requested, genWidth int) int {
	period := 1<<uint(genWidth) - 1
	if requested > period {
		return period
	}
	return requested
}

// netEval drives a combinational network from generator outputs once
// per clock; its buffers are reused across the whole session so the
// per-cycle loop allocates nothing (the MISR consumes the returned
// slice before the next call).
type netEval struct {
	in, vals, scratch, out []bool
}

func newNetEval(c *logic.Circuit, misrWidth int) *netEval {
	return &netEval{
		in:      make([]bool, len(c.PIs)),
		vals:    make([]bool, c.NumNets()),
		scratch: make([]bool, c.MaxFanin()),
		out:     make([]bool, misrWidth),
	}
}

// eval returns the network's output bits (padded with zeros to the
// MISR width). A non-nil fault is injected.
func (ne *netEval) eval(c *logic.Circuit, gen *Register, f *fault.Fault) []bool {
	q := gen.Q()
	for i := range ne.in {
		ne.in[i] = q[i]
	}
	if f == nil {
		sim.EvalInto(c, ne.in, nil, ne.vals)
	} else {
		fault.EvalFaultyInto(c, ne.in, nil, *f, ne.vals, ne.scratch)
	}
	for i := range ne.out {
		ne.out[i] = false
	}
	for i, po := range c.POs {
		ne.out[i] = ne.vals[po]
	}
	return ne.out
}

// SessionSignatures runs the two-phase self-test and returns the two
// signatures: phase 1 (Fig. 20) uses R1 as PN generator and R2 as MISR
// over C1; phase 2 (Fig. 21) swaps roles over C2. A non-nil fault is
// injected into the named network.
func (s *SelfTest) SessionSignatures(faultIn int, f *fault.Fault) (sig1, sig2 uint64) {
	// Phase 1.
	s.R1.SetQ(seedBits(s.Seed, s.R1.n))
	s.R2.Clock(ModeReset, nil, false)
	var f1, f2 *fault.Fault
	if f != nil {
		if faultIn == 1 {
			f1 = f
		} else {
			f2 = f
		}
	}
	ne1 := newNetEval(s.C1, s.R2.n)
	for p := 0; p < sessionLen(s.Patterns, s.R1.n); p++ {
		z := ne1.eval(s.C1, s.R1, f1)
		s.R2.Clock(ModeSignature, z, false)
		s.R1.Clock(ModeSignature, nil, false) // PN step
	}
	sig1 = s.R2.Signature()
	// Phase 2: roles reversed.
	s.R2.SetQ(seedBits(s.Seed, s.R2.n))
	s.R1.Clock(ModeReset, nil, false)
	ne2 := newNetEval(s.C2, s.R1.n)
	for p := 0; p < sessionLen(s.Patterns, s.R2.n); p++ {
		z := ne2.eval(s.C2, s.R2, f2)
		s.R1.Clock(ModeSignature, z, false)
		s.R2.Clock(ModeSignature, nil, false)
	}
	sig2 = s.R1.Signature()
	return sig1, sig2
}

// seedBits expands a word seed into latch values.
func seedBits(seed uint64, n int) []bool {
	out := make([]bool, n)
	if seed == 0 {
		seed = 1
	}
	for i := 0; i < n; i++ {
		out[i] = seed>>uint(i%64)&1 == 1
	}
	return out
}

// GoodSignatures computes the golden pair.
func (s *SelfTest) GoodSignatures() (uint64, uint64) {
	return s.SessionSignatures(0, nil)
}

// Detects reports whether the self-test catches the fault in the given
// network (1 or 2): some signature differs from golden.
func (s *SelfTest) Detects(faultIn int, f fault.Fault) bool {
	g1, g2 := s.GoodSignatures()
	b1, b2 := s.SessionSignatures(faultIn, &f)
	return g1 != b1 || g2 != b2
}

// CoverageSummary reports a self-test fault-coverage measurement.
type CoverageSummary struct {
	Total    int
	Detected int
	Patterns int
}

// Coverage returns detected/total.
func (cs CoverageSummary) Coverage() float64 {
	if cs.Total == 0 {
		return 0
	}
	return float64(cs.Detected) / float64(cs.Total)
}

// MeasureCoverage runs the self-test against every fault in network 1
// (C1) and reports coverage.
func (s *SelfTest) MeasureCoverage(faults []fault.Fault) CoverageSummary {
	cs := CoverageSummary{Total: len(faults), Patterns: s.Patterns}
	g1, g2 := s.GoodSignatures()
	for _, f := range faults {
		ff := f
		b1, b2 := s.SessionSignatures(1, &ff)
		if b1 != g1 || b2 != g2 {
			cs.Detected++
		}
	}
	return cs
}

// DataVolume compares tester data volume: scan applies every pattern
// through the chain (chainLen bits in, chainLen out per pattern), while
// BILBO off-loads one signature per session of `patterns` patterns —
// the paper's "test data volume may be reduced by a factor of 100".
func DataVolume(chainLen, patterns int) (scanBits, bilboBits int) {
	scanBits = patterns * 2 * chainLen
	bilboBits = 2 * chainLen // seed in + signature out per session
	return
}
