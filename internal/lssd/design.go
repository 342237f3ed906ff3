package lssd

import (
	"fmt"

	"dft/internal/fault"
	"dft/internal/logic"
)

// Design couples a scanned netlist with its ports and provides scan
// test application over the actual gate-level hardware: scan-in through
// the SI pin, functional capture, scan-out through the SO pin. This is
// the end-to-end path a tester exercises on an LSSD or Scan Path part.
type Design struct {
	Orig    *logic.Circuit
	Scanned *logic.Circuit
	P       Ports
	Style   Style

	m *fault.Machine
	// cycle accounting
	Cycles int
}

// NewDesign inserts scan into the circuit and wraps it for test
// application.
func NewDesign(c *logic.Circuit, style Style) *Design {
	sc, p := Insert(c, style)
	return &Design{Orig: c, Scanned: sc, P: p, Style: style, m: fault.NewMachine(sc, nil)}
}

// ChainLength returns the number of scan positions.
func (d *Design) ChainLength() int { return len(d.P.ChainL1) }

// clocksPerShift is 2 for LSSD (A/B phases) and 1 for mux-scan.
func (d *Design) clocksPerShift() int {
	if d.Style == StyleLSSD {
		return 2
	}
	return 1
}

// pinVector assembles the scanned circuit's input vector from the
// original PI values plus scan controls.
func (d *Design) pinVector(pi []bool, se, si bool) []bool {
	if len(pi) != len(d.Orig.PIs) {
		panic(fmt.Sprintf("lssd: %d PI values for %d inputs", len(pi), len(d.Orig.PIs)))
	}
	in := make([]bool, len(d.Scanned.PIs))
	copy(in, pi)
	in[len(pi)] = se
	in[len(pi)+1] = si
	return in
}

// soPin reads the scan-out pin from the last Apply.
func (d *Design) soPin() bool { return d.m.Peek(d.P.ScanOut) }

// Reset zeroes the machine state and cycle count, clearing any
// injected fault.
func (d *Design) Reset() {
	d.m = fault.NewMachine(d.Scanned, nil)
	d.Cycles = 0
}

// InjectFault resets the design onto a faulty machine carrying f (a
// fault in the scanned netlist; original-circuit gate IDs are
// preserved by insertion, so faults on original logic carry over).
func (d *Design) InjectFault(f fault.Fault) {
	d.m = fault.NewMachine(d.Scanned, &f)
	d.Cycles = 0
}

// ScanIn shifts vals into the chain (vals[i] destined for chain
// position i) through the SI pin.
func (d *Design) ScanIn(vals []bool) {
	if len(vals) != d.ChainLength() {
		panic(fmt.Sprintf("lssd: ScanIn with %d values for %d positions", len(vals), d.ChainLength()))
	}
	pi := make([]bool, len(d.Orig.PIs))
	cps := d.clocksPerShift()
	for i := len(vals) - 1; i >= 0; i-- {
		in := d.pinVector(pi, true, vals[i])
		for k := 0; k < cps; k++ {
			d.m.Apply(in)
			d.m.Clock()
			d.Cycles++
		}
	}
}

// ChainState reads the current chain contents (L1 values) directly
// from the model — a white-box helper for tests, not a tester
// operation.
func (d *Design) ChainState() []bool {
	out := make([]bool, d.ChainLength())
	for i, l1 := range d.P.ChainL1 {
		out[i] = d.m.Peek(l1)
	}
	return out
}

// Capture applies the primary inputs in functional mode (SE=0),
// returns the primary-output values (original PO set), and clocks once
// so the combinational response is captured into the chain.
func (d *Design) Capture(pi []bool) []bool {
	in := d.pinVector(pi, false, false)
	outs := d.m.Apply(in)
	d.m.Clock()
	d.Cycles++
	return outs[:len(d.Orig.POs)]
}

// ScanOut shifts the captured chain contents out through the SO pin,
// returning them in chain order.
func (d *Design) ScanOut() []bool {
	n := d.ChainLength()
	out := make([]bool, n)
	pi := make([]bool, len(d.Orig.PIs))
	in := d.pinVector(pi, true, false)
	if d.Style == StyleLSSD {
		// One B-phase clock moves the captured L1 values into the L2
		// scan path; thereafter each position needs a full A/B pair.
		d.m.Apply(in)
		d.m.Clock()
		d.Cycles++
		for k := n - 1; k >= 0; k-- {
			out[k] = d.soPin()
			d.m.Apply(in)
			d.m.Clock()
			d.m.Apply(in)
			d.m.Clock()
			d.Cycles += 2
		}
		return out
	}
	for k := n - 1; k >= 0; k-- {
		out[k] = d.soPin()
		d.m.Apply(in)
		d.m.Clock()
		d.Cycles++
	}
	return out
}

// ScanTest is one scan-format test: chain state plus primary-input
// values, with the expected responses filled in by RunTest.
type ScanTest struct {
	State []bool // value for each chain position
	PI    []bool
}

// TestResponse is the observed response to a ScanTest.
type TestResponse struct {
	PO       []bool
	Captured []bool
}

// RunTest applies one scan test end to end: scan-in, capture, scan-out.
func (d *Design) RunTest(t ScanTest) TestResponse {
	d.ScanIn(t.State)
	po := d.Capture(t.PI)
	cap := d.ScanOut()
	return TestResponse{PO: po, Captured: cap}
}

// TestCycles predicts the tester cycles for n tests on this design:
// per test one chain load plus one capture, plus a final unload —
// the serialization cost the paper flags as scan's main disadvantage.
func (d *Design) TestCycles(nTests int) int {
	shift := d.ChainLength() * d.clocksPerShift()
	extra := 0
	if d.Style == StyleLSSD {
		extra = 1 // settle clock before the L2 path carries the capture
	}
	return nTests * (shift + 1 + shift + extra)
}
