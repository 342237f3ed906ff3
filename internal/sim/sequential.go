package sim

import (
	"fmt"

	"dft/internal/logic"
)

// Machine simulates a sequential circuit cycle by cycle: apply primary
// inputs, observe primary outputs, clock, repeat. It is the reference
// "system operation" model against which the scan disciplines in the
// paper (LSSD, Scan Path, Scan/Set, Random-Access Scan) are compared.
type Machine struct {
	c      *logic.Circuit
	state  []bool
	vals   []bool
	dirty  bool // state changed since vals was computed
	lastPI []bool
}

// NewMachine creates a simulator with all flip-flops reset to 0.
func NewMachine(c *logic.Circuit) *Machine {
	return &Machine{
		c:      c,
		state:  make([]bool, len(c.DFFs)),
		vals:   make([]bool, len(c.Gates)),
		dirty:  true,
		lastPI: make([]bool, len(c.PIs)),
	}
}

// Circuit returns the simulated circuit.
func (m *Machine) Circuit() *logic.Circuit { return m.c }

// SetState forces the flip-flop contents (in Circuit.DFFs order).
func (m *Machine) SetState(s []bool) {
	if len(s) != len(m.state) {
		panic(fmt.Sprintf("sim: SetState with %d values for %d flip-flops", len(s), len(m.state)))
	}
	copy(m.state, s)
	m.dirty = true
}

// State returns a copy of the current flip-flop contents.
func (m *Machine) State() []bool { return append([]bool(nil), m.state...) }

// Apply drives the primary inputs and recomputes all nets without
// clocking. It returns the primary output values.
func (m *Machine) Apply(pi []bool) []bool {
	if len(pi) != len(m.lastPI) {
		panic(fmt.Sprintf("sim: Apply with %d values for %d inputs", len(pi), len(m.lastPI)))
	}
	copy(m.lastPI, pi)
	EvalInto(m.c, m.lastPI, m.state, m.vals)
	m.dirty = false
	return Outputs(m.c, m.vals)
}

// Clock latches the DFF D inputs into the flip-flops. The inputs last
// passed to Apply remain in effect; Clock re-evaluates so that Peek and
// subsequent Clocks see the post-edge network.
func (m *Machine) Clock() {
	if m.dirty {
		EvalInto(m.c, m.lastPI, m.state, m.vals)
	}
	for i, id := range m.c.DFFs {
		m.state[i] = m.vals[m.c.Gates[id].Fanin[0]]
	}
	EvalInto(m.c, m.lastPI, m.state, m.vals)
	m.dirty = false
}

// Step is Apply followed by Clock, returning the outputs observed
// before the clock edge — the standard per-cycle test application.
func (m *Machine) Step(pi []bool) []bool {
	out := m.Apply(pi)
	m.Clock()
	return out
}

// Peek returns the current value of an arbitrary net, re-evaluating if
// necessary. This models attaching a probe (test point, bed-of-nails
// nail, or signature-analyzer probe) to the net.
func (m *Machine) Peek(net int) bool {
	if m.dirty {
		EvalInto(m.c, m.lastPI, m.state, m.vals)
		m.dirty = false
	}
	return m.vals[net]
}

// Values returns a copy of the full net valuation.
func (m *Machine) Values() []bool {
	if m.dirty {
		EvalInto(m.c, m.lastPI, m.state, m.vals)
		m.dirty = false
	}
	return append([]bool(nil), m.vals...)
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
