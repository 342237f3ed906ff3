package fault

import (
	"fmt"

	"dft/internal/logic"
	"dft/internal/sim"
)

// Machine simulates a sequential circuit cycle by cycle: apply primary
// inputs, observe primary outputs, clock, repeat. Without a fault it is
// the good machine — the reference "system operation" model against
// which the scan disciplines in the paper (LSSD, Scan Path, Scan/Set,
// Random-Access Scan) are compared. With one it is the faulty machine
// that scan hardware, signature analyzers and self-test structures are
// exercised against.
type Machine struct {
	c       *logic.Circuit
	f       *Fault // nil for the good machine
	state   []bool
	vals    []bool
	scratch []bool
	lastPI  []bool
	dirty   bool // state changed since vals was computed
}

// NewMachine creates a machine with all flip-flops reset to 0, carrying
// a copy of f, or the good machine when f is nil. A fault on a DFF
// output wins immediately; a fault on a D input first shows in the
// value captured at the next clock.
func NewMachine(c *logic.Circuit, f *Fault) *Machine {
	m := &Machine{
		c:      c,
		state:  make([]bool, len(c.DFFs)),
		vals:   make([]bool, len(c.Gates)),
		lastPI: make([]bool, len(c.PIs)),
		dirty:  true,
	}
	if f != nil {
		fc := *f
		m.f = &fc
		m.scratch = make([]bool, c.MaxFanin())
	}
	m.pin(false)
	return m
}

// EvalInto computes all net values for one pattern into vals: the
// good machine's compiled pass when f is nil, else a full levelized
// interpreted pass with f injected at its site. pi and state follow
// the conventions of sim.Eval; scratch must hold the widest gate fanin
// when f is non-nil.
func EvalInto(c *logic.Circuit, pi, state []bool, f *Fault, vals, scratch []bool) {
	if f == nil {
		sim.EvalInto(c, pi, state, vals)
		return
	}
	for i, id := range c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range c.DFFs {
		vals[id] = state[i]
	}
	if f.Pin == Stem && !c.Gates[f.Gate].Type.IsCombinational() {
		vals[f.Gate] = f.SA == logic.One
	}
	evalOrder(c, *f, vals, scratch)
}

// pinFaultyState applies the clock-edge rule for a fault on a
// flip-flop to state, indexed like c.DFFs. An output (stem) fault holds
// the bit at all times; a D-input fault corrupts only captured values,
// so it is pinned only when captured is set. Faults elsewhere leave
// state alone.
func pinFaultyState(c *logic.Circuit, f Fault, state []bool, captured bool) {
	if c.Gates[f.Gate].Type != logic.DFF || (f.Pin != Stem && !captured) {
		return
	}
	for k, id := range c.DFFs {
		if id == f.Gate {
			state[k] = f.SA == logic.One
		}
	}
}

// pin applies the clock-edge rule of the machine's fault, if any.
func (m *Machine) pin(captured bool) {
	if m.f != nil {
		pinFaultyState(m.c, *m.f, m.state, captured)
	}
}

// eval recomputes every net from the last inputs and the state.
func (m *Machine) eval() {
	EvalInto(m.c, m.lastPI, m.state, m.f, m.vals, m.scratch)
	m.dirty = false
}

// Circuit returns the simulated circuit.
func (m *Machine) Circuit() *logic.Circuit { return m.c }

// Apply drives the primary inputs and recomputes all nets without
// clocking. It returns the primary output values.
func (m *Machine) Apply(pi []bool) []bool {
	if len(pi) != len(m.lastPI) {
		panic(fmt.Sprintf("fault: Apply with %d values for %d inputs", len(pi), len(m.lastPI)))
	}
	copy(m.lastPI, pi)
	m.eval()
	return sim.Outputs(m.c, m.vals)
}

// Clock latches the DFF D inputs into the flip-flops, respecting faults
// on the storage elements themselves. The inputs last passed to Apply
// remain in effect; the post-edge network is evaluated lazily, so Peek,
// Values and subsequent Clocks see it while a Step costs one pass.
func (m *Machine) Clock() {
	if m.dirty {
		m.eval()
	}
	for k, id := range m.c.DFFs {
		m.state[k] = m.vals[m.c.Gates[id].Fanin[0]]
	}
	m.pin(true)
	m.dirty = true
}

// Step is Apply followed by Clock, returning the outputs observed
// before the clock edge — the standard per-cycle test application.
func (m *Machine) Step(pi []bool) []bool {
	out := m.Apply(pi)
	m.Clock()
	return out
}

// Run applies a sequence of input patterns, clocking after each, and
// returns the output response sequence.
func (m *Machine) Run(patterns [][]bool) [][]bool {
	out := make([][]bool, len(patterns))
	for i, p := range patterns {
		out[i] = m.Step(p)
	}
	return out
}

// Peek returns the current value of an arbitrary net, re-evaluating if
// necessary. This models attaching a probe (test point, bed-of-nails
// nail, or signature-analyzer probe) to the net.
func (m *Machine) Peek(net int) bool {
	if m.dirty {
		m.eval()
	}
	return m.vals[net]
}

// Values returns a copy of the full net valuation.
func (m *Machine) Values() []bool {
	if m.dirty {
		m.eval()
	}
	return append([]bool(nil), m.vals...)
}

// State returns a copy of the flip-flop contents.
func (m *Machine) State() []bool { return append([]bool(nil), m.state...) }

// SetState forces the flip-flop contents, in Circuit.DFFs order
// (output-fault overrides applied; a D-input fault acts at the next
// Clock).
func (m *Machine) SetState(s []bool) {
	if len(s) != len(m.state) {
		panic(fmt.Sprintf("fault: SetState with %d values for %d flip-flops", len(s), len(m.state)))
	}
	copy(m.state, s)
	m.pin(false)
	m.dirty = true
}
