package fault

import (
	"sort"

	"dft/internal/logic"
)

// Classes is the result of equivalence collapsing: Reps holds one
// representative fault per equivalence class, and ClassOf maps every
// fault in the original universe to its class index in Reps.
type Classes struct {
	Reps    []Fault
	ClassOf map[Fault]int
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
func CollapseEquiv(c *logic.Circuit, universe []Fault) Classes {
	// Every fault of the circuit has a slot: gate id's stem s-a-v sits
	// at off[id]+v and its pin-p s-a-v at off[id]+2+2p+v. parent holds
	// the union-find forest over the universe's slots (-1 = absent).
	off := make([]int32, len(c.Gates)+1)
	for id, g := range c.Gates {
		off[id+1] = off[id] + 2*int32(1+len(g.Fanin))
	}
	slot := func(f Fault) int32 {
		if f.Gate < 0 || f.Gate >= len(c.Gates) || f.Pin < Stem || f.Pin >= len(c.Gates[f.Gate].Fanin) ||
			(f.SA != logic.Zero && f.SA != logic.One) {
			return -1
		}
		s := off[f.Gate] + 2*int32(f.Pin+1)
		if f.SA == logic.One {
			s++
		}
		return s
	}
	parent := make([]int32, off[len(c.Gates)])
	for i := range parent {
		parent[i] = -1
	}
	for _, f := range universe {
		if s := slot(f); s >= 0 {
			parent[s] = s
		}
	}
	find := func(s int32) int32 {
		for parent[s] != s {
			parent[s] = parent[parent[s]]
			s = parent[s]
		}
		return s
	}
	// mergeIf joins gate a's pin-pa fault with gate b's pin-pb fault,
	// both stuck at their given values, when both are in the universe.
	mergeIf := func(a, pa int, va logic.V, b, pb int, vb logic.V) {
		x, y := slot(Fault{a, pa, va}), slot(Fault{b, pb, vb})
		if parent[x] < 0 || parent[y] < 0 {
			return
		}
		if rx, ry := find(x), find(y); rx != ry {
			parent[rx] = ry
		}
	}

	for id, g := range c.Gates {
		switch g.Type {
		case logic.And:
			for p := range g.Fanin {
				mergeIf(id, p, logic.Zero, id, Stem, logic.Zero)
			}
		case logic.Nand:
			for p := range g.Fanin {
				mergeIf(id, p, logic.Zero, id, Stem, logic.One)
			}
		case logic.Or:
			for p := range g.Fanin {
				mergeIf(id, p, logic.One, id, Stem, logic.One)
			}
		case logic.Nor:
			for p := range g.Fanin {
				mergeIf(id, p, logic.One, id, Stem, logic.Zero)
			}
		case logic.Buf, logic.DFF:
			mergeIf(id, 0, logic.Zero, id, Stem, logic.Zero)
			mergeIf(id, 0, logic.One, id, Stem, logic.One)
		case logic.Not:
			mergeIf(id, 0, logic.Zero, id, Stem, logic.One)
			mergeIf(id, 0, logic.One, id, Stem, logic.Zero)
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
				mergeIf(n, Stem, logic.Zero, reader, p, logic.Zero)
				mergeIf(n, Stem, logic.One, reader, p, logic.One)
			}
		}
	}

	// Number the classes in universe order; a fault outside the
	// circuit's slots is a class of its own.
	cl := Classes{ClassOf: make(map[Fault]int, len(universe))}
	class := make([]int32, len(parent))
	for i := range class {
		class[i] = -1
	}
	for _, f := range universe {
		s := slot(f)
		if s < 0 {
			if _, ok := cl.ClassOf[f]; !ok {
				cl.ClassOf[f] = len(cl.Reps)
				cl.Reps = append(cl.Reps, f)
			}
			continue
		}
		r := find(s)
		if class[r] < 0 {
			class[r] = int32(len(cl.Reps))
			g := sort.Search(len(c.Gates), func(id int) bool { return off[id+1] > r })
			rep := Fault{Gate: g, Pin: int(r-off[g])/2 - 1, SA: logic.Zero}
			if (r-off[g])%2 == 1 {
				rep.SA = logic.One
			}
			cl.Reps = append(cl.Reps, rep)
		}
		cl.ClassOf[f] = int(class[r])
	}
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
	dominated := map[Fault]bool{}
	for id, g := range c.Gates {
		if len(g.Fanin) < 2 {
			continue
		}
		switch g.Type {
		case logic.And:
			dominated[Fault{id, Stem, logic.One}] = true
		case logic.Nand:
			dominated[Fault{id, Stem, logic.Zero}] = true
		case logic.Or:
			dominated[Fault{id, Stem, logic.Zero}] = true
		case logic.Nor:
			dominated[Fault{id, Stem, logic.One}] = true
		}
	}
	var out []Fault
	for _, f := range reps {
		if !dominated[f] {
			out = append(out, f)
		}
	}
	return out
}
