// Package rascan implements Fujitsu's Random-Access Scan (Figs.
// 16–18): every system latch is addressable through an X/Y decoder so
// it can be individually read (SDO) or written (SCK / preset-clear)
// without shift registers. The package models both latch types, the
// addressing network, and the overhead accounting the paper gives
// (3–4 gates per latch; 10–20 pins, reducible to ~6 with serialized
// address counters).
package rascan

import (
	"fmt"
	"math"

	"dft/internal/fault"
	"dft/internal/logic"
)

// LatchKind selects between the paper's two addressable latch designs.
type LatchKind int

const (
	// PolarityHold is the Fig. 16 latch: scan data in (SDI) is clocked
	// by SCK into the addressed latch.
	PolarityHold LatchKind = iota
	// SetReset is the Fig. 17 latch: a global CLEAR zeroes every latch,
	// then addressed PRESET pulses set chosen latches to 1.
	SetReset
)

// RAS couples a simulated machine with a random-access scan network.
type RAS struct {
	c    *logic.Circuit
	m    *fault.Machine
	kind LatchKind
	// Address geometry: latches arranged in an X×Y grid.
	xBits, yBits int
	// Operation accounting.
	Reads, Writes, Clears int
	AddressLoads          int
}

// New builds a RAS wrapper for the machine's flip-flops.
func New(m *fault.Machine, kind LatchKind) *RAS {
	n := m.Circuit().NumDFFs()
	if n == 0 {
		panic("rascan: circuit has no storage elements")
	}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	bits := 0
	for 1<<uint(bits) < side {
		bits++
	}
	return &RAS{c: m.Circuit(), m: m, kind: kind, xBits: bits, yBits: bits}
}

// NumLatches returns the addressable latch count.
func (r *RAS) NumLatches() int { return r.c.NumDFFs() }

// addrCheck validates a latch index.
func (r *RAS) addrCheck(i int) {
	if i < 0 || i >= r.NumLatches() {
		panic(fmt.Sprintf("rascan: latch %d out of range 0..%d", i, r.NumLatches()-1))
	}
}

// Read returns the addressed latch's value through SDO.
func (r *RAS) Read(i int) bool {
	r.addrCheck(i)
	r.Reads++
	r.AddressLoads++
	return r.m.State()[i]
}

// Write loads the addressed latch via SDI/SCK (polarity-hold kind
// only).
func (r *RAS) Write(i int, v bool) {
	r.addrCheck(i)
	if r.kind != PolarityHold {
		panic("rascan: Write requires the polarity-hold latch")
	}
	st := r.m.State()
	st[i] = v
	r.m.SetState(st)
	r.Writes++
	r.AddressLoads++
}

// Clear zeroes every latch (set/reset kind): the global CL line.
func (r *RAS) Clear() {
	st := make([]bool, r.NumLatches())
	r.m.SetState(st)
	r.Clears++
}

// Preset sets the addressed latch to 1 (set/reset kind).
func (r *RAS) Preset(i int) {
	r.addrCheck(i)
	if r.kind != SetReset {
		panic("rascan: Preset requires the set/reset latch")
	}
	st := r.m.State()
	st[i] = true
	r.m.SetState(st)
	r.Writes++
	r.AddressLoads++
}

// LoadState brings the machine to an arbitrary state using the
// cheapest operation sequence for the latch kind, and returns the
// number of addressed operations used.
func (r *RAS) LoadState(want []bool) int {
	if len(want) != r.NumLatches() {
		panic(fmt.Sprintf("rascan: LoadState with %d values for %d latches", len(want), r.NumLatches()))
	}
	ops := 0
	switch r.kind {
	case PolarityHold:
		cur := r.m.State()
		for i, v := range want {
			if cur[i] != v {
				r.Write(i, v)
				ops++
			}
		}
	case SetReset:
		r.Clear()
		ops++
		for i, v := range want {
			if v {
				r.Preset(i)
				ops++
			}
		}
	}
	return ops
}

// ReadState reads every latch, charging one addressed read per latch.
func (r *RAS) ReadState() []bool {
	out := make([]bool, r.NumLatches())
	for i := range out {
		out[i] = r.Read(i)
	}
	return out
}

// Machine exposes the wrapped machine for functional cycles.
func (r *RAS) Machine() *fault.Machine { return r.m }

// Overhead reports the paper's hardware accounting for a Random-Access
// Scan network over n latches and optional observation-only points.
type Overhead struct {
	GatesPerLatch   float64 // "about three to four gates per storage element"
	ExtraGatesTotal int
	Pins            int // direct X/Y addressing
	PinsSerialized  int // with serial address counters: ~6
	DecoderGates    int
}

// EstimateOverhead computes the hardware cost for n latches arranged
// in the package's X/Y grid.
func EstimateOverhead(n int) Overhead {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	bits := 0
	for 1<<uint(bits) < side {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	o := Overhead{
		GatesPerLatch: 3.5,
		// X and Y decoders: one AND per row/column plus inverters.
		DecoderGates: 2 * (1<<uint(bits) + bits),
	}
	o.ExtraGatesTotal = int(o.GatesPerLatch*float64(n)) + o.DecoderGates
	// Pins: X addr + Y addr + SDI + SDO + SCK + CL (paper: 10..20).
	o.Pins = 2*bits + 4
	o.PinsSerialized = 6
	return o
}
