package atpg

import (
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// DAlg generates a test with Roth's D-algorithm: unlike PODEM it makes
// decisions on internal nets, maintaining a D-frontier (gates through
// which the fault effect may still advance) and a J-frontier (internal
// assignments awaiting justification by input assignments).
//
// The implementation keeps the decision state as a partial assignment
// over all nets. Consistency is checked by five-valued forward
// simulation with the fault injected: a net whose simulated value is
// known must agree with its assignment.
func DAlg(c *logic.Circuit, view View, f fault.Fault, cfg PodemConfig) (Test, error) {
	maxBT := cfg.MaxBacktracks
	if maxBT <= 0 {
		maxBT = DefaultBacktracks
	}
	d := &dalg{
		s:      newSim5(c, view, MultiFault{f}),
		c:      c,
		f:      f,
		budget: maxBT,
	}
	defer func() {
		// Flush once per fault: the search itself stays atomic-free.
		reg := telemetry.OrDefault(cfg.Metrics)
		reg.Counter("atpg.dalg.decisions").Add(int64(d.decisions))
		reg.Counter("atpg.dalg.backtracks").Add(int64(d.backtracks))
		reg.Counter("atpg.dalg.implications").Add(int64(d.implications))
		reg.Counter("atpg.backtracks").Add(int64(d.backtracks))
	}()
	// Seed: activate the fault by requiring the site at NOT(SA).
	site := f.Site(c)
	asg := assignment{}
	asg[site] = f.SA.Not()
	ok, aborted := d.search(asg)
	if aborted {
		return Test{}, ErrAborted
	}
	if !ok {
		return Test{}, ErrUntestable
	}
	return d.found, nil
}

// assignment maps nets to required good-machine values.
type assignment map[int]logic.V

func (a assignment) clone() assignment {
	b := make(assignment, len(a)+4)
	for k, v := range a {
		b[k] = v
	}
	return b
}

type dalg struct {
	s       *sim5
	c       *logic.Circuit
	f       fault.Fault
	budget  int
	found   Test
	pending []int // assigned nets not yet produced by simulation

	// Search-effort counters, flushed to telemetry once per fault:
	// decisions = search nodes entered, implications = forward
	// simulation passes, backtracks = alternatives that failed.
	decisions    int
	implications int
	backtracks   int
}

// effective returns the value of a net under the current simulation
// (which already overlays assumed values), falling back to the
// assignment for nets simulation still reports as X.
func (d *dalg) effective(asg assignment, net int) logic.V {
	if v := d.s.vals[net]; v != logic.X {
		return v
	}
	if v, ok := asg[net]; ok {
		return v
	}
	return logic.X
}

// simulate performs a five-valued forward pass in which assumed
// assignments act as values on nets whose computed value is still X —
// this is how D-algorithm decisions on internal lines take effect
// before they are justified. A net whose computed value contradicts
// its assignment (comparing good-machine projections) is a conflict.
// Assignments not yet produced by computation are collected into
// d.pending (the J-frontier).
func (d *dalg) simulate(asg assignment) bool {
	s := d.s
	c := d.c
	d.implications++
	d.pending = d.pending[:0]
	for i := range s.assign {
		s.assign[i] = logic.X
	}
	for net, v := range asg {
		if i, ok := s.inIndex[net]; ok {
			s.assign[i] = v
		}
	}
	s.loadSources()
	overlay := func(id int) bool {
		// Returns false on conflict.
		raw := s.vals[id]
		want, assigned := asg[id]
		if assigned {
			if raw == logic.X {
				if _, isIn := s.inIndex[id]; !isIn {
					d.pending = append(d.pending, id)
					s.vals[id] = want
				}
			} else if raw.Good() != want {
				return false
			}
		}
		return true
	}
	for _, n := range c.PIs {
		if !overlay(n) {
			return false
		}
	}
	for _, n := range c.DFFs {
		if !overlay(n) {
			return false
		}
	}
	s.injectSources()
	for _, id := range c.Order {
		s.vals[id] = s.eval(id)
		if !overlay(id) {
			return false
		}
		s.vals[id] = s.stem(id, s.vals[id])
	}
	return true
}

// siteValue returns the good-machine value at the fault site.
func (d *dalg) siteValue() logic.V {
	return d.s.vals[d.f.Site(d.c)].Good()
}

// search is the recursive D-algorithm core.
func (d *dalg) search(asg assignment) (ok, aborted bool) {
	if d.budget <= 0 {
		return false, true
	}
	d.budget--
	d.decisions++
	if !d.simulate(asg) {
		return false, false
	}
	if d.s.detected() {
		// Justify any remaining unjustified assignments.
		if j, found := d.unjustified(asg); found {
			return d.justify(asg, j)
		}
		d.found = d.s.test()
		return true, false
	}
	// If the site can no longer be activated, fail.
	if sv := d.siteValue(); sv == d.f.SA {
		return false, false
	}
	// Advance the D-frontier if the fault is (or can be) active.
	gates := d.dFrontier(asg)
	if len(gates) == 0 {
		// Maybe activation itself is pending justification.
		if j, found := d.unjustified(asg); found {
			return d.justify(asg, j)
		}
		return false, false
	}
	for _, id := range gates {
		// Child searches overwrite the shared simulation; restore the
		// valuation of THIS node's assignment before reading it.
		if !d.simulate(asg) {
			return false, false
		}
		g := &d.c.Gates[id]
		// Collect the X side-inputs to assign.
		var freePins []int
		for pin, src := range g.Fanin {
			if d.f.Pin != fault.Stem && id == d.f.Gate && pin == d.f.Pin {
				continue
			}
			if d.effective(asg, src) == logic.X {
				freePins = append(freePins, pin)
			}
		}
		cv, hasCtl := g.Type.ControllingValue()
		if hasCtl {
			// AND/OR-class: side inputs are forced non-controlling.
			next := asg.clone()
			for _, pin := range freePins {
				next[g.Fanin[pin]] = cv.Not()
			}
			ok, ab := d.search(next)
			if ok || ab {
				return ok, ab
			}
			d.backtracks++
			continue
		}
		// XOR-class: any known side values propagate, but which values
		// are justifiable (and how the D emerges) depends on the
		// choice — enumerate the combinations (bounded).
		k := len(freePins)
		if k > 6 {
			k = 6
		}
		for m := 0; m < 1<<uint(k); m++ {
			next := asg.clone()
			for b := 0; b < k; b++ {
				v := logic.Zero
				if m>>uint(b)&1 == 1 {
					v = logic.One
				}
				next[g.Fanin[freePins[b]]] = v
			}
			ok, ab := d.search(next)
			if ok || ab {
				return ok, ab
			}
			d.backtracks++
		}
	}
	return false, false
}

// dFrontier lists gates whose output is X and which have a fault
// effect on some input (including the injected branch of the faulted
// gate).
func (d *dalg) dFrontier(asg assignment) []int {
	var out []int
	for _, id := range d.c.Order {
		if d.s.vals[id] != logic.X {
			continue
		}
		g := &d.c.Gates[id]
		hasD := false
		for _, src := range g.Fanin {
			if d.s.vals[src].IsError() {
				hasD = true
				break
			}
		}
		if !hasD && d.f.Pin != fault.Stem && id == d.f.Gate &&
			d.siteValue() == d.f.SA.Not() {
			hasD = true
		}
		if !hasD && d.f.Pin == fault.Stem && id == d.f.Gate {
			// Stem fault at a gate: it is its own frontier until its
			// good value is justified to NOT(SA).
			hasD = d.siteValue() != d.f.SA
		}
		if hasD && xPath(d.s, id) {
			out = append(out, id)
		}
	}
	return out
}

// unjustified picks the deepest assumed net that simulation has not
// yet produced (collected by the last simulate pass).
func (d *dalg) unjustified(asg assignment) (int, bool) {
	best, bestLevel := -1, -1
	for _, net := range d.pending {
		if d.c.Level[net] > bestLevel {
			best, bestLevel = net, d.c.Level[net]
		}
	}
	return best, best >= 0
}

// justify tries the alternative input assignments that produce the
// required value at net (the J-frontier step).
func (d *dalg) justify(asg assignment, net int) (ok, aborted bool) {
	want := asg[net]
	g := &d.c.Gates[net]
	if !g.Type.IsCombinational() || len(g.Fanin) == 0 {
		return false, false // const or storage: cannot justify
	}
	choices := justifyChoices(g.Type, len(g.Fanin), want)
	for _, choice := range choices {
		// Restore this node's valuation (child searches clobber it)
		// before consulting effective values for the pre-check.
		if !d.simulate(asg) {
			return false, false
		}
		next := asg.clone()
		consistent := true
		for pin, v := range choice {
			if v == logic.X {
				continue
			}
			src := g.Fanin[pin]
			if cur := d.effective(next, src); cur != logic.X && cur.Good() != v {
				consistent = false
				break
			}
			next[src] = v
		}
		if !consistent {
			continue
		}
		ok, ab := d.search(next)
		if ok || ab {
			return ok, ab
		}
		d.backtracks++
	}
	return false, false
}

// justifyChoices enumerates the minimal input cubes producing value
// want at a gate of the given type (the gate's "singular cover").
func justifyChoices(t logic.GateType, n int, want logic.V) [][]logic.V {
	cube := func(fill logic.V) []logic.V {
		c := make([]logic.V, n)
		for i := range c {
			c[i] = fill
		}
		return c
	}
	oneHot := func(pos int, v logic.V) []logic.V {
		c := cube(logic.X)
		c[pos] = v
		return c
	}
	var out [][]logic.V
	switch t {
	case logic.Buf:
		out = append(out, []logic.V{want})
	case logic.Not:
		out = append(out, []logic.V{want.Not()})
	case logic.And, logic.Nand:
		high := want == logic.One
		if t == logic.Nand {
			high = !high
		}
		if high {
			out = append(out, cube(logic.One))
		} else {
			for i := 0; i < n; i++ {
				out = append(out, oneHot(i, logic.Zero))
			}
		}
	case logic.Or, logic.Nor:
		high := want == logic.One
		if t == logic.Nor {
			high = !high
		}
		if high {
			for i := 0; i < n; i++ {
				out = append(out, oneHot(i, logic.One))
			}
		} else {
			out = append(out, cube(logic.Zero))
		}
	case logic.Xor, logic.Xnor:
		// Enumerate all input combinations with the right parity.
		wantOdd := want == logic.One
		if t == logic.Xnor {
			wantOdd = !wantOdd
		}
		for m := 0; m < 1<<uint(n); m++ {
			ones := 0
			c := make([]logic.V, n)
			for i := 0; i < n; i++ {
				if m>>uint(i)&1 == 1 {
					c[i] = logic.One
					ones++
				} else {
					c[i] = logic.Zero
				}
			}
			if (ones%2 == 1) == wantOdd {
				out = append(out, c)
			}
		}
	}
	return out
}
