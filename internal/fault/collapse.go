package fault

import "dft/internal/logic"

// Classes is the result of equivalence collapsing: Reps holds one
// representative fault per equivalence class, numbered in the order
// the classes first appear in the universe, and Class maps a fault to
// its class index in Reps.
//
// Every fault of a circuit has a dense ID: gate g's stem s-a-v is
// off[g]+v and its pin-p s-a-v is off[g]+2+2p+v, where off[g] sums
// 2·(1+fanin) over the gates before g. Universe order is dense-ID
// order, so collapsing runs on flat arrays indexed by these IDs.
type Classes struct {
	Reps []Fault
	// ClassOf maps every fault in the universe to its class index in
	// Reps. It is a compatibility view that only CollapseEquiv fills;
	// Collapse leaves it nil. Class answers the same question for both.
	ClassOf map[Fault]int

	off   []int32 // off[g]: dense ID of gate g's stem s-a-0
	class []int32 // dense ID → class index, -1 outside the universe
	size  int     // distinct faults in the universe
}

// Class returns f's class index in Reps, and false when f is not in
// the collapsed universe.
func (cl Classes) Class(f Fault) (int, bool) {
	if s := denseID(cl.off, f); s >= 0 && cl.class[s] >= 0 {
		return int(cl.class[s]), true
	}
	k, ok := cl.ClassOf[f] // faults outside the circuit's dense IDs
	return k, ok
}

// UniverseSize returns the number of distinct faults collapsed.
func (cl Classes) UniverseSize() int { return cl.size }

// denseID returns f's dense ID under the layout off, or -1 when the
// circuit has no such fault.
func denseID(off []int32, f Fault) int32 {
	if f.Gate < 0 || f.Gate >= len(off)-1 || f.SA != logic.Zero && f.SA != logic.One {
		return -1
	}
	lo, hi := off[f.Gate], off[f.Gate+1]
	if f.Pin < Stem || f.Pin >= int(hi-lo)/2-1 {
		return -1
	}
	s := lo + 2*int32(f.Pin+1)
	if f.SA == logic.One {
		s++
	}
	return s
}

// equiv is the structural equivalence union-find over a circuit's
// dense fault IDs.
type equiv struct {
	off    []int32
	parent []int32 // -1: outside the universe
}

func newEquiv(c *logic.Circuit) *equiv {
	off := make([]int32, len(c.Gates)+1)
	for id, g := range c.Gates {
		off[id+1] = off[id] + 2*int32(1+len(g.Fanin))
	}
	return &equiv{off: off, parent: make([]int32, off[len(c.Gates)])}
}

func (e *equiv) find(s int32) int32 {
	for e.parent[s] != s {
		e.parent[s] = e.parent[e.parent[s]]
		s = e.parent[s]
	}
	return s
}

// union joins the classes of x and y, rooting x's under y's, when both
// faults are in the universe.
func (e *equiv) union(x, y int32) {
	if e.parent[x] < 0 || e.parent[y] < 0 {
		return
	}
	if rx, ry := e.find(x), e.find(y); rx != ry {
		e.parent[rx] = ry
	}
}

// merge applies the equivalence rules listed on CollapseEquiv.
func (e *equiv) merge(c *logic.Circuit) {
	for id, g := range c.Gates {
		stem := e.off[id] // s-a-0; stem+1 is s-a-1
		pin := func(p int) int32 { return stem + 2 + 2*int32(p) }
		switch g.Type {
		case logic.And:
			for p := range g.Fanin {
				e.union(pin(p), stem)
			}
		case logic.Nand:
			for p := range g.Fanin {
				e.union(pin(p), stem+1)
			}
		case logic.Or:
			for p := range g.Fanin {
				e.union(pin(p)+1, stem+1)
			}
		case logic.Nor:
			for p := range g.Fanin {
				e.union(pin(p)+1, stem)
			}
		case logic.Buf, logic.DFF:
			if len(g.Fanin) > 0 {
				e.union(pin(0), stem)
				e.union(pin(0)+1, stem+1)
			}
		case logic.Not:
			if len(g.Fanin) > 0 {
				e.union(pin(0), stem+1)
				e.union(pin(0)+1, stem)
			}
		}
	}
	// Stem/branch merging on fanout-free internal nets.
	isPO := make([]bool, c.NumNets())
	for _, po := range c.POs {
		isPO[po] = true
	}
	for n, fo := range c.Fanout {
		if len(fo) != 1 || isPO[n] {
			continue
		}
		reader := fo[0]
		for p, src := range c.Gates[reader].Fanin {
			if src == n {
				branch := e.off[reader] + 2 + 2*int32(p)
				e.union(e.off[n], branch)
				e.union(e.off[n]+1, branch+1)
			}
		}
	}
}

// newClasses returns an empty numbering over e's dense IDs.
func newClasses(e *equiv, reps int) Classes {
	cl := Classes{Reps: make([]Fault, 0, reps), off: e.off, class: make([]int32, len(e.parent))}
	for i := range cl.class {
		cl.class[i] = -1
	}
	return cl
}

// number returns the class of dense ID s, opening the next class when
// s's class is met for the first time; nameRoots names it later.
func (cl *Classes) number(e *equiv, s int32) int {
	r := e.find(s)
	if cl.class[r] < 0 {
		cl.class[r] = int32(len(cl.Reps))
		cl.Reps = append(cl.Reps, Fault{})
	}
	cl.class[s] = cl.class[r]
	return int(cl.class[s])
}

// nameRoots makes each class's union-find root its representative,
// reading the root's gate from a walk over the gates.
func (cl *Classes) nameRoots(e *equiv) {
	for g := 0; g < len(e.off)-1; g++ {
		for s := e.off[g]; s < e.off[g+1]; s++ {
			if e.parent[s] == s {
				d := int(s - e.off[g])
				cl.Reps[cl.class[s]] = Fault{Gate: g, Pin: d/2 - 1, SA: logic.V(d % 2)}
			}
		}
	}
}

// Collapse performs structural fault-equivalence collapsing over the
// circuit's whole fault universe without building it: Reps and Class
// are exactly those of CollapseEquiv(c, Universe(c)), but ClassOf is
// left nil.
func Collapse(c *logic.Circuit) Classes {
	e := newEquiv(c)
	for id, g := range c.Gates {
		present := e.off[id+1]
		if g.Type == logic.Input {
			present = e.off[id] + 2 // Universe has no input-pin faults
		}
		for s := e.off[id]; s < e.off[id+1]; s++ {
			e.parent[s] = -1
			if s < present {
				e.parent[s] = s
			}
		}
	}
	e.merge(c)
	roots, size := 0, 0
	for s, p := range e.parent {
		if p == int32(s) {
			roots++
		}
		if p >= 0 {
			size++
		}
	}
	cl := newClasses(e, roots)
	for s, p := range e.parent {
		if p >= 0 {
			cl.number(e, int32(s))
		}
	}
	cl.nameRoots(e)
	cl.size = size
	return cl
}

// CollapseEquiv performs structural fault-equivalence collapsing
// ([36],[41],[47] in the paper): faults that provably produce identical
// behavior on every input are merged. The rules are the classical ones:
//
//   - AND:  any input s-a-0 ≡ output s-a-0; NAND: input s-a-0 ≡ output s-a-1
//   - OR:   any input s-a-1 ≡ output s-a-1; NOR:  input s-a-1 ≡ output s-a-0
//   - BUF/DFF: input s-a-v ≡ output s-a-v;  NOT: input s-a-v ≡ output s-a-v̄
//   - a stem fault on a fanout-free, non-output net ≡ the branch fault
//     on its single reader
//
// This typically halves the universe — the paper's "about 3000" from
// 6000 for a 1000-gate network.
//
// The universe may be any fault list, in any order, with repeats; a
// fault outside the circuit is a class of its own. CollapseEquiv also
// fills ClassOf; Collapse gives the whole universe's classes without it.
func CollapseEquiv(c *logic.Circuit, universe []Fault) Classes {
	e := newEquiv(c)
	for i := range e.parent {
		e.parent[i] = -1
	}
	for _, f := range universe {
		if s := denseID(e.off, f); s >= 0 {
			e.parent[s] = s
		}
	}
	e.merge(c)
	cl := newClasses(e, 0)
	cl.ClassOf = make(map[Fault]int, len(universe))
	for _, f := range universe {
		if s := denseID(e.off, f); s >= 0 {
			cl.ClassOf[f] = cl.number(e, s)
		} else if _, ok := cl.ClassOf[f]; !ok {
			cl.ClassOf[f] = len(cl.Reps)
			cl.Reps = append(cl.Reps, f)
		}
	}
	cl.nameRoots(e)
	cl.size = len(cl.ClassOf)
	return cl
}

// CollapseDominance further prunes a collapsed fault list using gate-
// level dominance ([42] in the paper): a fault that is detected by
// every test for another fault need not be targeted. For an AND gate,
// output s-a-1 dominates each input s-a-1, so the output fault can be
// dropped from the target list (test the inputs and the output comes
// free); dually for OR/NAND/NOR.
//
// The returned list is for test-generation targeting only — unlike
// equivalence classes it does not preserve coverage accounting.
func CollapseDominance(c *logic.Circuit, reps []Fault) []Fault {
	var out []Fault
	for _, f := range reps {
		if v, ok := dominatedStem(c, f.Gate); !ok || f.Pin != Stem || f.SA != v {
			out = append(out, f)
		}
	}
	return out
}

// dominatedStem returns the stuck value of gate g's dominating stem
// fault, if it has one: every test for an input fault of g with the
// non-controlling value stuck also detects it. That is s-a-1 for AND
// and NOR, s-a-0 for NAND and OR, on gates with two or more inputs.
func dominatedStem(c *logic.Circuit, g int) (logic.V, bool) {
	if g < 0 || g >= len(c.Gates) || len(c.Gates[g].Fanin) < 2 {
		return 0, false
	}
	switch c.Gates[g].Type {
	case logic.And, logic.Nor:
		return logic.One, true
	case logic.Nand, logic.Or:
		return logic.Zero, true
	}
	return 0, false
}
