// Package atpg implements the test-generation algorithms the paper
// builds on: the D-algorithm (Roth [93]), PODEM, and random / weighted /
// adaptive-random pattern generation ([87],[95],[98]), plus test-set
// compaction and a driver that combines deterministic generation with
// fault-simulation-based dropping.
//
// All algorithms run against a View, which abstracts what the tester
// can control and observe. For a combinational circuit the view is the
// primary inputs/outputs; for a full-scan (LSSD, Scan Path, Random-
// Access Scan) design the flip-flops join the view on both sides —
// that single change is how the structured techniques "reduce the test
// generation problem to one of generating tests for combinational
// logic".
package atpg

import (
	"fmt"

	"dft/internal/fault"
	"dft/internal/logic"
)

// View lists the nets test generation may control and observe.
type View struct {
	Inputs  []int // controllable element nets (Input or DFF elements)
	Outputs []int // observable nets
}

// PrimaryView is the view of a tester at the package pins only.
func PrimaryView(c *logic.Circuit) View {
	return View{
		Inputs:  append([]int(nil), c.PIs...),
		Outputs: append([]int(nil), c.POs...),
	}
}

// FullScanView models a scan design: every flip-flop is directly
// controllable (scan-in) and its D input directly observable
// (scan-out), in addition to the primary pins.
func FullScanView(c *logic.Circuit) View {
	v := PrimaryView(c)
	for _, d := range c.DFFs {
		v.Inputs = append(v.Inputs, d)
		v.Outputs = append(v.Outputs, c.Gates[d].Fanin[0])
	}
	return v
}

// PartialScanView exposes only the listed flip-flops, modeling Scan/Set
// style partial observability/controllability.
func PartialScanView(c *logic.Circuit, scanned []int) View {
	v := PrimaryView(c)
	inScan := map[int]bool{}
	for _, d := range scanned {
		inScan[d] = true
	}
	for _, d := range c.DFFs {
		if inScan[d] {
			v.Inputs = append(v.Inputs, d)
			v.Outputs = append(v.Outputs, c.Gates[d].Fanin[0])
		}
	}
	return v
}

// Test is one generated test: values for each View input, in order.
// Unassigned positions hold logic.X and may be filled arbitrarily.
type Test struct {
	Values []logic.V
}

// Filled returns a copy with X positions replaced by fill.
func (t Test) Filled(fill logic.V) []logic.V {
	out := make([]logic.V, len(t.Values))
	for i, v := range t.Values {
		if v == logic.X {
			out[i] = fill
		} else {
			out[i] = v
		}
	}
	return out
}

// Bools converts a fully specified test to booleans, filling X with
// false.
func (t Test) Bools() []bool {
	out := make([]bool, len(t.Values))
	for i, v := range t.Values {
		out[i] = v == logic.One
	}
	return out
}

// String renders the cube in 01X notation.
func (t Test) String() string {
	b := make([]byte, len(t.Values))
	for i, v := range t.Values {
		switch v {
		case logic.Zero:
			b[i] = '0'
		case logic.One:
			b[i] = '1'
		default:
			b[i] = 'X'
		}
	}
	return string(b)
}

// MultiFault is a set of stuck-at sites that belong to one physical
// defect — the situation time-frame expansion creates, where a single
// fault appears once per frame of the unrolled circuit. Each site is
// stuck independently at its own SA value, and the "faulty machine"
// carries all of them. A single fault is a one-site set.
type MultiFault []fault.Fault

// sim5 is the five-valued full-circuit simulator with a set of
// stuck-at sites injected, evaluating from a partial assignment on the
// view inputs.
type sim5 struct {
	c       *logic.Circuit
	view    View
	sites   MultiFault
	faulty  []bool // per net: some site sits on this element
	vals    []logic.V
	assign  []logic.V // per view-input assignment (X = free)
	inIndex map[int]int
	isIn    []bool
	scratch []logic.V
}

func newSim5(c *logic.Circuit, view View, sites MultiFault) *sim5 {
	s := &sim5{
		c:       c,
		view:    view,
		sites:   sites,
		faulty:  make([]bool, c.NumNets()),
		vals:    make([]logic.V, c.NumNets()),
		assign:  make([]logic.V, len(view.Inputs)),
		inIndex: make(map[int]int, len(view.Inputs)),
		isIn:    make([]bool, c.NumNets()),
		scratch: make([]logic.V, c.MaxFanin()),
	}
	for i, n := range view.Inputs {
		s.inIndex[n] = i
		s.isIn[n] = true
		s.assign[i] = logic.X
	}
	for _, f := range sites {
		s.faulty[f.Gate] = true
	}
	return s
}

// inject maps a good-machine value to the five-valued fault-effect
// value for a stuck-at-sa site.
func inject(good logic.V, sa logic.V) logic.V {
	switch good.Good() {
	case logic.X:
		return logic.X
	case logic.One:
		if sa == logic.Zero {
			return logic.D
		}
		return logic.One
	default: // Zero
		if sa == logic.One {
			return logic.Dbar
		}
		return logic.Zero
	}
}

// loadSources sets the source elements: view inputs from the
// assignment, every other primary input and flip-flop unknown.
func (s *sim5) loadSources() {
	for i, n := range s.view.Inputs {
		s.vals[n] = s.assign[i]
	}
	for _, n := range s.c.PIs {
		if !s.isIn[n] {
			s.vals[n] = logic.X
		}
	}
	for _, n := range s.c.DFFs {
		if !s.isIn[n] {
			s.vals[n] = logic.X // unscanned storage is unknown
		}
	}
}

// injectSources applies the stem sites that sit on source elements.
func (s *sim5) injectSources() {
	for _, f := range s.sites {
		if f.Pin == fault.Stem && !s.c.Gates[f.Gate].Type.IsCombinational() {
			s.vals[f.Gate] = inject(s.vals[f.Gate], f.SA)
		}
	}
}

// eval computes combinational gate id from its fanin values, with the
// gate's branch sites injected but not its stem sites.
func (s *sim5) eval(id int) logic.V {
	g := &s.c.Gates[id]
	in := s.scratch[:len(g.Fanin)]
	for i, src := range g.Fanin {
		in[i] = s.vals[src]
	}
	if s.faulty[id] {
		for _, f := range s.sites {
			if f.Gate == id && f.Pin != fault.Stem {
				in[f.Pin] = inject(in[f.Pin], f.SA)
			}
		}
	}
	return g.Type.Eval(in)
}

// stem applies the stem sites on gate id to its computed value v.
func (s *sim5) stem(id int, v logic.V) logic.V {
	if s.faulty[id] {
		for _, f := range s.sites {
			if f.Gate == id && f.Pin == fault.Stem {
				v = inject(v, f.SA)
			}
		}
	}
	return v
}

// branchSite reports whether input pin of gate id is a branch site.
func (s *sim5) branchSite(id, pin int) bool {
	if s.faulty[id] {
		for _, f := range s.sites {
			if f.Gate == id && f.Pin == pin {
				return true
			}
		}
	}
	return false
}

// run performs a full forward pass with the current assignment and
// fault injection; afterwards s.vals holds every net's value.
func (s *sim5) run() {
	s.loadSources()
	s.injectSources()
	for _, id := range s.c.Order {
		s.vals[id] = s.stem(id, s.eval(id))
	}
}

// detected reports whether a fault effect reaches an observable net.
func (s *sim5) detected() bool {
	for _, o := range s.view.Outputs {
		if s.vals[o].IsError() {
			return true
		}
	}
	return false
}

// test converts the current assignment into a Test cube.
func (s *sim5) test() Test {
	return Test{Values: append([]logic.V(nil), s.assign...)}
}

// Verify checks that a test cube detects the fault under the view
// (with X inputs left unknown). It is used by tests and by the driver
// as a paranoia check on generated cubes.
func Verify(c *logic.Circuit, view View, f fault.Fault, t Test) bool {
	return VerifyMulti(c, view, MultiFault{f}, t)
}

// VerifyMulti checks that a test cube detects the multi-site fault.
func VerifyMulti(c *logic.Circuit, view View, fs MultiFault, t Test) bool {
	if len(t.Values) != len(view.Inputs) {
		panic(fmt.Sprintf("atpg: test width %d != view width %d", len(t.Values), len(view.Inputs)))
	}
	s := newSim5(c, view, fs)
	copy(s.assign, t.Values)
	s.run()
	return s.detected()
}
