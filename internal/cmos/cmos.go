// Package cmos implements the CMOS stuck-open fault model behind the
// paper's §I.A warning: "there are a number of faults which could
// change a combinational network into a sequential network. Therefore
// the combinational patterns are no longer effective in testing the
// network in all cases."
//
// A stuck-open transistor leaves the gate output floating for the
// input combinations that needed the broken path; the node then
// retains its previous value — state where none was designed. Detection
// therefore needs two-pattern tests: an initialization pattern that
// drives the node to the opposite value, then an excitation pattern
// whose good response differs from the retained value, propagated to
// an output.
//
// The model covers the inverting CMOS primitives (NAND, NOR, NOT),
// whose transistor networks are unambiguous: NAND = series NMOS
// pull-down / parallel PMOS pull-up; NOR = the dual; NOT = one of each.
package cmos

import (
	"fmt"
	"math/rand"

	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

// Network identifies which transistor network the open is in.
type Network uint8

const (
	PullDown Network = iota // NMOS network (drives 0)
	PullUp                  // PMOS network (drives 1)
)

// String names the network.
func (n Network) String() string {
	if n == PullDown {
		return "pull-down"
	}
	return "pull-up"
}

// Fault is a stuck-open transistor: the device driven by input pin Pin
// of gate Gate, in the given network.
type Fault struct {
	Gate    int
	Pin     int
	Network Network
}

// Name renders the fault.
func (f Fault) Name(c *logic.Circuit) string {
	return fmt.Sprintf("%s.in%d %s stuck-open", c.NameOf(f.Gate), f.Pin, f.Network)
}

// Supported reports whether the gate type has a defined transistor
// model here.
func Supported(t logic.GateType) bool {
	switch t {
	case logic.Nand, logic.Nor, logic.Not:
		return true
	}
	return false
}

// Universe enumerates all stuck-open faults of the supported gates.
func Universe(c *logic.Circuit) []Fault {
	var out []Fault
	for id, g := range c.Gates {
		if !Supported(g.Type) {
			continue
		}
		for p := range g.Fanin {
			out = append(out, Fault{id, p, PullDown}, Fault{id, p, PullUp})
		}
	}
	return out
}

// floats reports whether the faulty gate output floats for the given
// input values (i.e., the good machine needed the broken transistor).
func (f Fault) floats(t logic.GateType, in []bool) bool {
	switch t {
	case logic.Not:
		if f.Network == PullDown {
			return in[0] // output should be 0 via the broken NMOS
		}
		return !in[0] // output should be 1 via the broken PMOS
	case logic.Nand:
		if f.Network == PullDown {
			// Series NMOS: conducts only with all inputs 1; any open
			// transistor breaks it.
			for _, b := range in {
				if !b {
					return false
				}
			}
			return true
		}
		// Parallel PMOS: the output floats only when the broken device
		// was the sole conducting path: in[Pin]=0 and all others 1.
		if in[f.Pin] {
			return false
		}
		for q, b := range in {
			if q != f.Pin && !b {
				return false
			}
		}
		return true
	case logic.Nor:
		if f.Network == PullUp {
			// Series PMOS: conducts only with all inputs 0.
			for _, b := range in {
				if b {
					return false
				}
			}
			return true
		}
		// Parallel NMOS: floats when in[Pin]=1 and all others 0.
		if !in[f.Pin] {
			return false
		}
		for q, b := range in {
			if q != f.Pin && b {
				return false
			}
		}
		return true
	}
	return false
}

// Machine simulates the faulty CMOS circuit over a pattern sequence:
// combinational everywhere except the faulty gate, whose output
// retains its previous value whenever it floats. Nodes power up to
// the good value of the first pattern's evaluation with retention
// starting at false (discharged).
type Machine struct {
	c      *logic.Circuit
	f      Fault
	retain bool // last driven value of the faulty node
	vals   []bool
}

// NewMachine builds the faulty machine (node initially discharged).
func NewMachine(c *logic.Circuit, f Fault) *Machine {
	if !Supported(c.Gates[f.Gate].Type) {
		panic("cmos: unsupported gate type for " + f.Name(c))
	}
	return &Machine{c: c, f: f, vals: make([]bool, c.NumNets())}
}

// Apply evaluates one pattern, returning the primary outputs.
func (m *Machine) Apply(pi []bool) []bool {
	c := m.c
	for i, id := range c.PIs {
		m.vals[id] = pi[i]
	}
	scratch := make([]bool, c.MaxFanin())
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			in[i] = m.vals[src]
		}
		v := g.Type.EvalBool(in)
		if id == m.f.Gate {
			if m.f.floats(g.Type, in) {
				v = m.retain // the node holds its charge
			} else {
				m.retain = v
			}
		}
		m.vals[id] = v
	}
	out := make([]bool, len(c.POs))
	for i, po := range c.POs {
		out[i] = m.vals[po]
	}
	return out
}

// DetectsSequence reports whether applying the patterns in order
// distinguishes the stuck-open machine from the good one.
func DetectsSequence(c *logic.Circuit, f Fault, patterns [][]bool) bool {
	m := NewMachine(c, f)
	goodVals := make([]bool, c.NumNets())
	state := make([]bool, len(c.DFFs))
	for _, p := range patterns {
		bad := m.Apply(p)
		sim.EvalInto(c, p, state, goodVals)
		for i, po := range c.POs {
			if bad[i] != goodVals[po] {
				return true
			}
		}
	}
	return false
}

// TwoPattern is an (initialize, excite) pair.
type TwoPattern struct {
	Init   []bool
	Excite []bool
}

// inducedStuck returns the stuck-at fault the retained node mimics
// during a properly initialized excitation: a floating node that
// should fall reads as s-a-1; one that should rise reads as s-a-0.
func (f Fault) inducedStuck() logic.V {
	t := f.Network
	if t == PullDown {
		return logic.One // should drive 0, retains 1
	}
	return logic.Zero // should drive 1, retains 0
}

// initValue is the node value the initialization pattern must
// establish (the opposite of the good excitation response).
func (f Fault) initValue() bool { return f.inducedStuck() == logic.One }

// Generate builds a two-pattern test for the stuck-open fault:
// the excitation pattern is a PODEM test for the induced stuck-at on
// the gate output, verified to float the node; the initialization
// pattern drives the node to the retained value. Parallel-network
// opens need the excitation to use exactly the broken path, which
// PODEM does not constrain — those fall back to a bounded random
// search. Returns ErrNoTest when the search fails.
func Generate(c *logic.Circuit, f Fault, rng *rand.Rand) (TwoPattern, error) {
	search := atpg.NewSearcher(c, atpg.PrimaryView(c))
	sa := fault.Fault{Gate: f.Gate, Pin: fault.Stem, SA: f.inducedStuck()}

	excite, ok := findExcitation(c, search, f, sa, rng)
	if !ok {
		return TwoPattern{}, fmt.Errorf("cmos: no excitation found for %s", f.Name(c))
	}
	init, ok := findInit(c, search, f, rng)
	if !ok {
		return TwoPattern{}, fmt.Errorf("cmos: no initialization found for %s", f.Name(c))
	}
	return TwoPattern{Init: init, Excite: excite}, nil
}

// findExcitation finds a pattern that floats the node AND propagates
// the retained-vs-driven difference to an output.
func findExcitation(c *logic.Circuit, search *atpg.Searcher, f Fault, sa fault.Fault, rng *rand.Rand) ([]bool, bool) {
	check := func(p []bool) bool {
		if !fault.DetectsCombinational(c, p, sa) {
			return false
		}
		in := gateInputs(c, f.Gate, p)
		return f.floats(c.Gates[f.Gate].Type, in)
	}
	// PODEM's stuck-at test satisfies series-network excitation
	// automatically; verify and accept.
	if cube, err := search.Podem(sa, atpg.PodemConfig{}); err == nil {
		for _, fill := range []bool{false, true} {
			p := cube.Fill(func() bool { return fill })
			if check(p) {
				return p, true
			}
		}
	}
	// Parallel-network (or unlucky fill) fallback: bounded random
	// search with verification.
	n := len(c.PIs)
	for trial := 0; trial < 4096; trial++ {
		p := make([]bool, n)
		for i := range p {
			p[i] = rng.Intn(2) == 1
		}
		if check(p) {
			return p, true
		}
	}
	return nil, false
}

// findInit finds a pattern that drives the node to f.initValue()
// without floating it.
func findInit(c *logic.Circuit, search *atpg.Searcher, f Fault, rng *rand.Rand) ([]bool, bool) {
	want := f.initValue()
	check := func(p []bool) bool {
		in := gateInputs(c, f.Gate, p)
		t := c.Gates[f.Gate].Type
		if f.floats(t, in) {
			return false
		}
		return t.EvalBool(in) == want
	}
	// Justify via PODEM: a test for "node s-a-(NOT want)" necessarily
	// drives the node to want.
	saInit := fault.Fault{Gate: f.Gate, Pin: fault.Stem, SA: logic.FromBool(!want)}
	if cube, err := search.Podem(saInit, atpg.PodemConfig{}); err == nil {
		for _, fill := range []bool{false, true} {
			p := cube.Fill(func() bool { return fill })
			if check(p) {
				return p, true
			}
		}
	}
	n := len(c.PIs)
	for trial := 0; trial < 4096; trial++ {
		p := make([]bool, n)
		for i := range p {
			p[i] = rng.Intn(2) == 1
		}
		if check(p) {
			return p, true
		}
	}
	return nil, false
}

func gateInputs(c *logic.Circuit, id int, pi []bool) []bool {
	vals := sim.Eval(c, pi, make([]bool, len(c.DFFs)))
	g := &c.Gates[id]
	in := make([]bool, len(g.Fanin))
	for i, src := range g.Fanin {
		in[i] = vals[src]
	}
	return in
}

// GradeSequence measures stuck-open coverage of a pattern sequence
// applied in the given order (order matters — that is the point).
func GradeSequence(c *logic.Circuit, faults []Fault, patterns [][]bool) (detected int) {
	for _, f := range faults {
		if DetectsSequence(c, f, patterns) {
			detected++
		}
	}
	return detected
}

// GradeTwoPattern generates and applies a dedicated two-pattern test
// per fault, returning how many faults are covered.
func GradeTwoPattern(c *logic.Circuit, faults []Fault, rng *rand.Rand) (detected, generated int) {
	for _, f := range faults {
		tp, err := Generate(c, f, rng)
		if err != nil {
			continue
		}
		generated++
		if DetectsSequence(c, f, [][]bool{tp.Init, tp.Excite}) {
			detected++
		}
	}
	return detected, generated
}
