package fault

import (
	"fmt"

	"dft/internal/logic"
)

// Machine is a cycle-level simulator of a faulty sequential circuit —
// the "faulty machine" counterpart of sim.Machine, used to exercise
// scan hardware, signature analyzers and self-test structures against
// injected defects.
type Machine struct {
	c       *logic.Circuit
	f       Fault
	state   []bool
	vals    []bool
	scratch []bool
	lastPI  []bool
	dirty   bool
}

// NewMachine creates a faulty machine with all flip-flops reset to 0
// (the stuck value wins immediately for faults on DFF outputs; a fault
// on a D input first shows in the value captured at the next clock).
func NewMachine(c *logic.Circuit, f Fault) *Machine {
	m := &Machine{
		c:       c,
		f:       f,
		state:   make([]bool, len(c.DFFs)),
		vals:    make([]bool, len(c.Gates)),
		scratch: make([]bool, c.MaxFanin()),
		lastPI:  make([]bool, len(c.PIs)),
		dirty:   true,
	}
	pinFaultyState(m.c, m.f, m.state, false)
	return m
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

// Apply drives the primary inputs and recomputes all nets (fault
// injected) without clocking, returning the primary outputs.
func (m *Machine) Apply(pi []bool) []bool {
	if len(pi) != len(m.lastPI) {
		panic(fmt.Sprintf("fault: Apply with %d values for %d inputs", len(pi), len(m.lastPI)))
	}
	copy(m.lastPI, pi)
	evalFaultyInto(m.c, m.lastPI, m.state, m.f, m.vals, m.scratch)
	m.dirty = false
	out := make([]bool, len(m.c.POs))
	for i, po := range m.c.POs {
		out[i] = m.vals[po]
	}
	return out
}

// Clock latches the D inputs into the flip-flops, respecting faults on
// the storage elements themselves.
func (m *Machine) Clock() {
	if m.dirty {
		evalFaultyInto(m.c, m.lastPI, m.state, m.f, m.vals, m.scratch)
	}
	for k, id := range m.c.DFFs {
		m.state[k] = m.vals[m.c.Gates[id].Fanin[0]]
	}
	pinFaultyState(m.c, m.f, m.state, true)
	evalFaultyInto(m.c, m.lastPI, m.state, m.f, m.vals, m.scratch)
	m.dirty = false
}

// Step is Apply followed by Clock.
func (m *Machine) Step(pi []bool) []bool {
	out := m.Apply(pi)
	m.Clock()
	return out
}

// Peek returns the (faulty) value of an arbitrary net.
func (m *Machine) Peek(net int) bool {
	if m.dirty {
		evalFaultyInto(m.c, m.lastPI, m.state, m.f, m.vals, m.scratch)
		m.dirty = false
	}
	return m.vals[net]
}

// State returns a copy of the flip-flop contents.
func (m *Machine) State() []bool { return append([]bool(nil), m.state...) }

// SetState forces the flip-flop contents (output-fault overrides
// applied; a D-input fault acts at the next Clock).
func (m *Machine) SetState(s []bool) {
	if len(s) != len(m.state) {
		panic(fmt.Sprintf("fault: SetState with %d values for %d flip-flops", len(s), len(m.state)))
	}
	copy(m.state, s)
	pinFaultyState(m.c, m.f, m.state, false)
	m.dirty = true
}
