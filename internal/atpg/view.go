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
	"dft/internal/sim"
)

// View lists the nets test generation may control and observe: the
// controllable element nets (Input or DFF elements) and the observable
// nets. It is the fault simulator's view, so a test view grades as is.
type View = fault.View

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

// Fill converts the cube to a pattern, drawing each X position from x
// in input order.
func (t Test) Fill(x func() bool) []bool {
	out := make([]bool, len(t.Values))
	for i, v := range t.Values {
		if v == logic.X {
			out[i] = x()
		} else {
			out[i] = v == logic.One
		}
	}
	return out
}

// Bools converts the cube to a pattern, filling X with false.
func (t Test) Bools() []bool {
	return t.Fill(func() bool { return false })
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

// sim5 is the five-valued simulator with a set of stuck-at sites
// injected, evaluating from a partial assignment on the view inputs.
//
// Implication is event-driven. The first run after target evaluates
// every gate in c.Order; each later run starts only from the view
// inputs set since the previous one and re-evaluates, level by level
// over the shared reader CSR, only gates with a changed fanin. A gate
// schedules its readers only when its own value changed, so net values
// after every run equal a whole-circuit pass exactly. The D-frontier is
// kept current as gates are evaluated. Every change a run makes is
// trailed, so a backtrack undoes to a decision's mark without
// evaluating a gate.
type sim5 struct {
	c      *logic.Circuit
	t      *sim.Topology
	view   View
	sites  MultiFault
	faulty []bool // per net: some site sits on this element
	vals   []logic.V
	assign []logic.V // per view-input assignment (X = free)
	inPos  []int32   // per net: position in view.Inputs, -1 if not a view input
	isObs  []bool    // per net: observable under the view

	primed  bool      // vals hold a pass over the current sites
	changed []int32   // view positions set since the last run
	trail   []undoRec // changes since the first pass, for undo
	queued  []bool    // gate waiting in its level bucket
	byLevel [][]int32 // worklist buckets indexed by level
	pending int       // queued gates not yet evaluated
	evals   int       // gates evaluated since target

	// frontier is the D-frontier as a bitset over positions in c.Order:
	// bit p is set when gate c.Order[p] is X and a fault effect reaches
	// one of its inputs.
	frontier []uint64

	// xPath memo, valid for one epoch (one objective call, during which
	// vals are fixed): xEpoch means no X-path, xEpoch+1 an X-path.
	xMemo   []uint32
	xEpoch  uint32
	xVisits int // nets expanded by xPath since target, a bound tests check
}

// undoRec records one change a run made: net's value was old, or, when
// old is frontierFlip, gate net's D-frontier bit was toggled.
type undoRec struct {
	net int32
	old logic.V
}

// frontierFlip marks an undoRec that toggled a D-frontier bit.
const frontierFlip logic.V = 0xff

// newSim5 builds a simulator for the view, targeting sites.
func newSim5(c *logic.Circuit, view View, sites MultiFault) *sim5 {
	n := c.NumNets()
	s := &sim5{
		c:        c,
		t:        sim.TopologyFor(c),
		view:     view,
		faulty:   make([]bool, n),
		vals:     make([]logic.V, n),
		assign:   make([]logic.V, len(view.Inputs)),
		inPos:    make([]int32, n),
		isObs:    make([]bool, n),
		queued:   make([]bool, n),
		byLevel:  make([][]int32, c.Depth()+1),
		frontier: make([]uint64, (len(c.Order)+63)/64),
		xMemo:    make([]uint32, n),
	}
	for i := range s.inPos {
		s.inPos[i] = -1
	}
	for i, in := range view.Inputs {
		s.inPos[in] = int32(i)
	}
	for _, o := range view.Outputs {
		s.isObs[o] = true
	}
	s.target(sites)
	return s
}

// target points the simulator at a new set of sites with every view
// input free; the next run is a whole-circuit pass.
func (s *sim5) target(sites MultiFault) {
	for _, f := range s.sites {
		s.faulty[f.Gate] = false
	}
	s.sites = sites
	for _, f := range sites {
		s.faulty[f.Gate] = true
	}
	for i := range s.assign {
		s.assign[i] = logic.X
	}
	s.changed = s.changed[:0]
	s.primed = false
	s.evals, s.xVisits = 0, 0
}

// set assigns view input idx; the next run propagates the change.
func (s *sim5) set(idx int, v logic.V) {
	s.assign[idx] = v
	s.changed = append(s.changed, int32(idx))
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
		if s.inPos[n] < 0 {
			s.vals[n] = logic.X
		}
	}
	for _, n := range s.c.DFFs {
		if s.inPos[n] < 0 {
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

// evalD computes combinational gate id from its fanin values, with the
// gate's branch sites injected but not its stem sites. It also reports
// whether a fault effect reaches the gate's inputs: an error value on a
// fanin, or an activated branch site, whose injected D is invisible in
// vals.
//
// The gate's operator (sim.Topology.Op, the table the fault kernel
// evaluates from too) picks a five-valued fold table, and the fanins
// are folded straight out of vals, left to right from the connective's
// identity, as GateType.Eval folds them. The order matters: the
// five-valued connectives are not associative (AndV(X, D, D') is X,
// AndV(D, D', X) is 0), so a fold that regrouped the operands, or an
// encoding that projected back to X only at the end of the gate, would
// change verdicts. A faulty gate injects its branch sites into the fold
// operand by operand.
func (s *sim5) evalD(id int32) (v logic.V, hasD bool) {
	op := s.t.Op[id]
	if s.faulty[id] {
		return s.evalFaulty(id, op)
	}
	vals, r, e := s.vals, op.Start(), logic.V(0)
	for _, src := range s.t.Fanins(id) {
		x := vals[src]
		// x+5 has bit 3 set just when x is D (3) or D' (4).
		r, e = op.Fold(r, x), e|(x+5)
	}
	return op.Out(r), e&8 != 0
}

// evalFaulty is evalD for a gate some site sits on: each operand takes
// the gate's branch sites on its pin, in site order, before it is
// folded.
func (s *sim5) evalFaulty(id int32, op logic.Op) (v logic.V, hasD bool) {
	r := op.Start()
	for pin, src := range s.t.Fanins(id) {
		x := s.vals[src]
		hasD = hasD || x.IsError()
		for _, f := range s.sites {
			if f.Gate == int(id) && f.Pin == pin {
				if good := x.Good(); good != logic.X && good != f.SA {
					hasD = true
				}
				x = inject(x, f.SA)
			}
		}
		r = op.Fold(r, x)
	}
	return op.Out(r), hasD
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

// run brings vals up to date with the assignment. The first run after
// target is a whole-circuit pass; every later one propagates from the
// view inputs set since the previous run.
func (s *sim5) run() {
	if !s.primed {
		s.fullPass()
		return
	}
	for _, i := range s.changed {
		n := s.view.Inputs[i]
		// A net listed twice in the view takes its last position's value,
		// as in loadSources.
		if v := s.stem(n, s.assign[s.inPos[n]]); v != s.vals[n] {
			s.trail = append(s.trail, undoRec{int32(n), s.vals[n]})
			s.vals[n] = v
			s.schedule(int32(n))
		}
	}
	s.changed = s.changed[:0]
	for lv := 1; s.pending > 0; lv++ {
		bucket := s.byLevel[lv]
		for _, id := range bucket {
			s.queued[id] = false
			v, hasD := s.evalD(id)
			if v = s.stem(int(id), v); v != s.vals[id] {
				s.trail = append(s.trail, undoRec{id, s.vals[id]})
				s.vals[id] = v
				s.schedule(id)
			}
			if s.setFrontier(s.t.OrderPos[id], v == logic.X && hasD) {
				s.trail = append(s.trail, undoRec{id, frontierFlip})
			}
		}
		s.pending -= len(bucket)
		s.evals += len(bucket)
		s.byLevel[lv] = bucket[:0]
	}
}

// fullPass evaluates every gate in c.Order from the assignment and
// rebuilds the D-frontier. It is the first pass of each search and the
// whole of Verify.
func (s *sim5) fullPass() {
	s.loadSources()
	s.injectSources()
	clear(s.frontier)
	for p, id := range s.c.Order {
		v, hasD := s.evalD(int32(id))
		v = s.stem(id, v)
		s.vals[id] = v
		s.setFrontier(int32(p), v == logic.X && hasD)
	}
	s.evals += len(s.c.Order)
	s.changed = s.changed[:0]
	s.trail = s.trail[:0]
	s.primed = true
}

// mark returns a trail position to undo back to.
func (s *sim5) mark() int { return len(s.trail) }

// undo restores vals and the D-frontier to what they were at mark,
// evaluating no gate. The caller restores the matching assignment.
func (s *sim5) undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		r := s.trail[i]
		if r.old == frontierFlip {
			p := s.t.OrderPos[r.net]
			s.frontier[p>>6] ^= 1 << (p & 63)
		} else {
			s.vals[r.net] = r.old
		}
	}
	s.trail = s.trail[:mark]
}

// schedule queues net n's combinational readers in their level
// buckets.
func (s *sim5) schedule(n int32) {
	for _, r := range s.t.ReadersOf(n) {
		if !s.queued[r] {
			s.queued[r] = true
			lv := s.t.Level[r]
			s.byLevel[lv] = append(s.byLevel[lv], r)
			s.pending++
		}
	}
}

// setFrontier records whether the gate at position p of c.Order is on
// the D-frontier, reporting whether that changed.
func (s *sim5) setFrontier(p int32, on bool) bool {
	w, bit := &s.frontier[p>>6], uint64(1)<<(p&63)
	if (*w&bit != 0) == on {
		return false
	}
	*w ^= bit
	return true
}

// beginXPath starts a new xPath memo epoch; call it whenever vals may
// have changed since the last xPath call.
func (s *sim5) beginXPath() {
	s.xEpoch += 2
	if s.xEpoch == 0 { // wrapped: stale stamps could alias
		clear(s.xMemo)
		s.xEpoch = 2
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
