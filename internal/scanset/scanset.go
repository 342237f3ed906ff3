// Package scanset implements Sperry-Univac's Scan/Set logic (Fig. 15):
// a bit-serial shadow shift register, outside the system data path,
// that samples up to 64 arbitrary points of the running machine in a
// single clock and shifts them out without disturbing operation, plus
// the dual "set" function that drives values into system latches.
//
// Because the shadow register need not touch every latch, Scan/Set
// gives partial controllability/observability: the package quantifies
// what that costs in achievable fault coverage relative to full scan.
package scanset

import (
	"fmt"

	"dft/internal/fault"
	"dft/internal/logic"
)

// MaxBits is the width of the classical bit-serial register.
const MaxBits = 64

// ScanSet attaches a shadow register to a simulated machine. Taps are
// the sampled nets; SetPoints are flip-flops the set function can load.
type ScanSet struct {
	c         *logic.Circuit
	m         *fault.Machine
	taps      []int
	setPoints []int // DFF element nets
	reg       []bool
	ShiftOps  int // cycle accounting for the serial unload
}

// New wires a Scan/Set register to machine m sampling the given nets
// and able to set the given flip-flops.
func New(m *fault.Machine, taps []int, setPoints []int) *ScanSet {
	c := m.Circuit()
	if len(taps) > MaxBits {
		panic(fmt.Sprintf("scanset: %d taps exceed the %d-bit register", len(taps), MaxBits))
	}
	for _, sp := range setPoints {
		if c.Gates[sp].Type != logic.DFF {
			panic(fmt.Sprintf("scanset: set point %s is not a storage element", c.NameOf(sp)))
		}
	}
	return &ScanSet{
		c: c, m: m,
		taps:      append([]int(nil), taps...),
		setPoints: append([]int(nil), setPoints...),
		reg:       make([]bool, len(taps)),
	}
}

// Sample loads the shadow register from the tapped nets in one clock —
// "a snapshot of the sequential machine can be obtained and off-loaded
// without any degradation in system performance".
func (s *ScanSet) Sample() {
	for i, n := range s.taps {
		s.reg[i] = s.m.Peek(n)
	}
}

// ShiftOut serially unloads the register, returning the sampled bits
// in tap order and charging one shift per bit.
func (s *ScanSet) ShiftOut() []bool {
	out := append([]bool(nil), s.reg...)
	s.ShiftOps += len(s.reg)
	return out
}

// Snapshot is Sample followed by ShiftOut.
func (s *ScanSet) Snapshot() []bool {
	s.Sample()
	return s.ShiftOut()
}

// Set drives the given values into the set points (the funnel of
// Fig. 15's set function): the machine's flip-flops are loaded
// directly, charging one shift per bit to deliver the data.
func (s *ScanSet) Set(vals []bool) {
	if len(vals) != len(s.setPoints) {
		panic(fmt.Sprintf("scanset: Set with %d values for %d set points", len(vals), len(s.setPoints)))
	}
	state := s.m.State()
	index := map[int]int{}
	for k, d := range s.c.DFFs {
		index[d] = k
	}
	for i, sp := range s.setPoints {
		state[index[sp]] = vals[i]
	}
	s.m.SetState(state)
	s.ShiftOps += len(vals)
}

// Machine exposes the underlying machine for driving system cycles.
func (s *ScanSet) Machine() *fault.Machine { return s.m }

// CoverageProfile describes the observability a Scan/Set configuration
// achieves: which flip-flops are settable, which nets sampled.
type CoverageProfile struct {
	TotalDFFs   int
	SetDFFs     int
	SampledNets int
}

// Profile summarizes the configuration.
func (s *ScanSet) Profile() CoverageProfile {
	return CoverageProfile{
		TotalDFFs:   s.c.NumDFFs(),
		SetDFFs:     len(s.setPoints),
		SampledNets: len(s.taps),
	}
}
