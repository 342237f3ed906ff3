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
// of its width. Its latches are one lfsr.MISR word: bit i is latch
// Q(i+1).
type Register struct {
	reg *lfsr.MISR
}

// NewRegister builds an n-bit BILBO register.
func NewRegister(n int) *Register {
	return &Register{reg: lfsr.NewMISR(n, n)}
}

// Width returns the register width.
func (r *Register) Width() int { return r.reg.Width() }

// Q returns the latch outputs (Q1..Qn as Q[0..n-1]).
func (r *Register) Q() []bool { return lfsr.UnpackBits(r.reg.State(), r.Width()) }

// QWord packs the outputs into a word (bit i = latch i).
func (r *Register) QWord() uint64 { return r.reg.State() }

// SetQ loads the latches directly (test setup helper).
func (r *Register) SetQ(vals []bool) {
	if len(vals) != r.Width() {
		panic(fmt.Sprintf("bilbo: SetQ with %d values for width %d", len(vals), r.Width()))
	}
	r.reg.SetState(lfsr.PackBits(vals))
}

// Clock advances the register one clock in the given mode. z supplies
// the parallel inputs Z1..Zn (required for ModeSystem and
// ModeSignature; pass nil to hold them at 0, the PN-generation
// configuration). scanIn feeds the serial input in ModeShift. The
// return value is the scan output Qn.
func (r *Register) Clock(mode Mode, z []bool, scanIn bool) bool {
	n := r.Width()
	if z != nil && len(z) != n {
		panic(fmt.Sprintf("bilbo: %d Z values for width %d", len(z), n))
	}
	switch mode {
	case ModeSystem:
		r.reg.SetState(lfsr.PackBits(z))
	case ModeShift:
		// Fig. 19(c): the scan path runs through inverters, so L1 takes
		// the complemented scan input and Li the complemented L(i-1).
		var in uint64
		if scanIn {
			in = 1
		}
		r.reg.SetState(^(r.reg.State()<<1 | in))
	case ModeSignature:
		// Fig. 19(d): L1 <- Z1 ⊕ feedback; Li <- Zi ⊕ L(i-1).
		r.reg.Clock(lfsr.PackBits(z))
	case ModeReset:
		r.reg.SetState(0)
	}
	return r.reg.State()>>uint(n-1)&1 == 1
}

// Signature returns the register contents as a word — the residue read
// out after a signature session.
func (r *Register) Signature() uint64 { return r.QWord() }

// ScanOutAll switches to shift mode and unloads the register serially,
// returning the pre-shift contents in latch order (compensating the
// scan-path inverters). The value strobed at Qn after k shifts started
// at latch n-k and was complemented k times on its way, so the
// compensated stream is exactly the pre-shift contents.
func (r *Register) ScanOutAll() []bool {
	out := r.Q()
	for range out {
		r.Clock(ModeShift, nil, false)
	}
	return out
}

// PNSequence runs the register as a pseudo-random pattern generator
// (signature mode, Z held at zero) for k clocks, returning the Q words
// — the "Pseudo Random Patterns (PN)" of the paper.
func (r *Register) PNSequence(k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		r.reg.Clock(0)
		out[i] = r.reg.State()
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

// session runs one self-test phase: gen, loaded with the seed, drives
// network c as a PN generator while misr, cleared, compresses c's
// outputs; it returns misr's signature. A non-nil fault is injected
// into c. The evaluation buffers live for the whole session, so the
// per-clock loop allocates nothing.
func (s *SelfTest) session(c *logic.Circuit, gen, misr *Register, f *fault.Fault) uint64 {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	gen.reg.SetState(seed)
	misr.reg.SetState(0)
	in := make([]bool, len(c.PIs))
	vals := make([]bool, c.NumNets())
	scratch := make([]bool, c.MaxFanin())
	for p := 0; p < sessionLen(s.Patterns, gen.Width()); p++ {
		q := gen.reg.State()
		for i := range in {
			in[i] = q>>uint(i)&1 == 1
		}
		if f == nil {
			sim.EvalInto(c, in, nil, vals)
		} else {
			fault.EvalFaultyInto(c, in, nil, *f, vals, scratch)
		}
		var z uint64
		for i, po := range c.POs {
			if vals[po] {
				z |= 1 << uint(i)
			}
		}
		misr.reg.Clock(z)
		gen.reg.Clock(0) // PN step
	}
	return misr.reg.State()
}

// SessionSignatures runs the two-phase self-test and returns the two
// signatures: phase 1 (Fig. 20) uses R1 as PN generator and R2 as MISR
// over C1; phase 2 (Fig. 21) swaps roles over C2. A non-nil fault is
// injected into the named network.
func (s *SelfTest) SessionSignatures(faultIn int, f *fault.Fault) (sig1, sig2 uint64) {
	var f1, f2 *fault.Fault
	if faultIn == 1 {
		f1 = f
	} else {
		f2 = f
	}
	return s.session(s.C1, s.R1, s.R2, f1), s.session(s.C2, s.R2, s.R1, f2)
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
