package atpg

import (
	"fmt"
	"testing"

	"dft/internal/fault"
	"dft/internal/logic"
)

// podemReference is PODEM as it ran before implication became
// event-driven: every implication is a whole-circuit pass, objective
// rescans c.Order for the D-frontier, and backtrace looks inputs up in
// a map. It drives inc, an event-driven simulator over the same
// circuit, view and sites, through the same decisions and backtracks
// (set, mark, undo, run), and returns a description of the first
// implication after which inc's net values or D-frontier differ from
// the reference pass, or "" if none does.
func podemReference(c *logic.Circuit, view View, sites MultiFault, maxBT int) (Test, error, string) {
	ref := newSim5(c, view, sites)
	inc := newSim5(c, view, sites)
	inIndex := make(map[int]int, len(view.Inputs))
	for i, n := range view.Inputs {
		inIndex[n] = i
	}
	isOut := make(map[int]bool, len(view.Outputs))
	for _, o := range view.Outputs {
		isOut[o] = true
	}
	var stack []decision
	backtracks, step := 0, 0
	mismatch := ""
	for {
		ref.fullPass()
		inc.run()
		if step++; mismatch == "" {
			mismatch = compareSims(ref, inc, step)
		}
		if ref.detected() {
			return ref.test(), nil, mismatch
		}
		obj, objVal, feasible := refObjective(ref, isOut)
		if feasible {
			if idx, v, ok := refBacktrace(ref, inIndex, obj, objVal); ok {
				ref.assign[idx] = v
				stack = append(stack, decision{idx: idx, val: v, mark: inc.mark()})
				inc.set(idx, v)
				continue
			}
		}
		for {
			if len(stack) == 0 {
				return Test{}, ErrUntestable, mismatch
			}
			top := &stack[len(stack)-1]
			inc.undo(top.mark)
			if !top.flipped {
				top.flipped = true
				top.val = top.val.Not()
				ref.assign[top.idx] = top.val
				inc.set(top.idx, top.val)
				if backtracks++; backtracks > maxBT {
					return Test{}, ErrAborted, mismatch
				}
				break
			}
			ref.assign[top.idx] = logic.X
			inc.assign[top.idx] = logic.X
			stack = stack[:len(stack)-1]
		}
	}
}

// compareSims describes the first net whose value, or the first gate
// whose D-frontier membership, differs between the reference pass and
// the event-driven one after implication step.
func compareSims(ref, inc *sim5, step int) string {
	c := ref.c
	for n := range ref.vals {
		if ref.vals[n] != inc.vals[n] {
			return fmt.Sprintf("implication %d: net %s is %v after a full pass, %v event-driven",
				step, c.NameOf(n), ref.vals[n], inc.vals[n])
		}
	}
	for p, id := range c.Order {
		want := refOnFrontier(ref, id)
		if got := inc.frontier[p>>6]>>(p&63)&1 == 1; got != want {
			return fmt.Sprintf("implication %d: gate %s on the D-frontier: rescan %v, event-driven %v",
				step, c.NameOf(id), want, got)
		}
	}
	return ""
}

// refOnFrontier is the D-frontier test as objective applied it to
// every gate: the gate is X and a fault effect reaches an input,
// counting an activated branch site, whose D is invisible in vals.
func refOnFrontier(s *sim5, id int) bool {
	if s.vals[id] != logic.X {
		return false
	}
	g := &s.c.Gates[id]
	for _, src := range g.Fanin {
		if s.vals[src].IsError() {
			return true
		}
	}
	for _, f := range s.sites {
		if f.Gate == id && f.Pin != fault.Stem {
			if good := s.vals[g.Fanin[f.Pin]].Good(); good != logic.X && good != f.SA {
				return true
			}
		}
	}
	return false
}

// refObjective is objective with the D-frontier found by rescanning
// c.Order and the X-path found by refXPath.
func refObjective(s *sim5, isOut map[int]bool) (net int, val logic.V, feasible bool) {
	active, open := false, -1
	for i, f := range s.sites {
		switch good := s.vals[f.Site(s.c)].Good(); {
		case good == logic.X:
			if open < 0 {
				open = i
			}
		case good != f.SA:
			active = true
		}
	}
	if !active {
		if open < 0 {
			return 0, logic.X, false
		}
		f := s.sites[open]
		return f.Site(s.c), f.SA.Not(), true
	}
	for _, id := range s.c.Order {
		if !refOnFrontier(s, id) || !refXPath(s, isOut, id) {
			continue
		}
		g := &s.c.Gates[id]
		for pin, src := range g.Fanin {
			if s.vals[src] != logic.X || s.branchSite(id, pin) {
				continue
			}
			cv, has := g.Type.ControllingValue()
			want := logic.Zero
			if has {
				want = cv.Not()
			}
			return src, want, true
		}
	}
	return 0, logic.X, false
}

// refXPath is the X-path check as a depth-first reachability search
// over c.Fanout with a visited set: net reaches a net in isOut through
// X-valued combinational readers.
func refXPath(s *sim5, isOut map[int]bool, net int) bool {
	seen := map[int]bool{net: true}
	stack := []int{net}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if isOut[n] {
			return true
		}
		for _, r := range s.c.Fanout[n] {
			if s.c.Gates[r].Type.IsCombinational() && s.vals[r] == logic.X && !seen[r] {
				seen[r] = true
				stack = append(stack, r)
			}
		}
	}
	return false
}

// refBacktrace is backtrace with view inputs looked up in a map.
func refBacktrace(s *sim5, inIndex map[int]int, net int, val logic.V) (idx int, v logic.V, ok bool) {
	for {
		if i, isIn := inIndex[net]; isIn {
			if s.assign[i] != logic.X {
				return 0, logic.X, false
			}
			return i, val, true
		}
		g := &s.c.Gates[net]
		if !g.Type.IsCombinational() || len(g.Fanin) == 0 {
			return 0, logic.X, false
		}
		if g.Type.Inverting() {
			val = val.Not()
		}
		next := -1
		for _, src := range g.Fanin {
			if s.vals[src] == logic.X {
				next = src
				break
			}
		}
		if next < 0 {
			return 0, logic.X, false
		}
		net = next
	}
}

// TestXPathLadder checks that xPath walks reconvergent fanout once per
// net. The circuit is a ladder of Buf/Not→Or diamonds, each doubling
// the paths from input a, whose only output is blocked by a 0 side
// input: without memoization the failing search takes 2^40 paths.
func TestXPathLadder(t *testing.T) {
	const k = 40
	c := logic.New("ladder")
	a := c.AddInput("a")
	c.AddInput("side")
	x := a
	for i := 0; i < k; i++ {
		b := c.AddGate(logic.Buf, fmt.Sprintf("b%d", i), x)
		n := c.AddGate(logic.Not, fmt.Sprintf("n%d", i), x)
		x = c.AddGate(logic.Or, fmt.Sprintf("o%d", i), b, n)
	}
	side, _ := c.NetByName("side")
	c.MarkOutput(c.AddGate(logic.And, "out", x, side))
	c.MustFinalize()

	s := newSim5(c, PrimaryView(c), nil)
	s.set(1, logic.Zero)
	s.run()
	s.beginXPath()
	if xPath(s, a) {
		t.Fatal("xPath found a path past the blocked output")
	}
	if s.xVisits > c.NumNets() {
		t.Fatalf("xPath expanded %d nets; the circuit has %d", s.xVisits, c.NumNets())
	}
	if refXPath(s, map[int]bool{c.POs[0]: true}, a) != xPath(s, a) {
		t.Fatal("memoized xPath disagrees with the reachability search")
	}

	// With the side input free again the output is X, and the path is
	// found.
	s.set(1, logic.X)
	s.run()
	s.beginXPath()
	if !xPath(s, a) {
		t.Fatal("xPath missed the path through the free output")
	}
}
