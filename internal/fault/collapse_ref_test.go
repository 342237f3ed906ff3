package fault_test

import (
	"math/rand"
	"reflect"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
)

// collapseEquivRef is the map-keyed union-find CollapseEquiv replaced:
// the reference its index-based successor must reproduce exactly.
func collapseEquivRef(c *logic.Circuit, universe []fault.Fault) fault.Classes {
	type F = fault.Fault
	const stem = fault.Stem
	parent := map[F]F{}
	var find func(f F) F
	find = func(f F) F {
		p, ok := parent[f]
		if !ok || p == f {
			return f
		}
		r := find(p)
		parent[f] = r
		return r
	}
	union := func(a, b F) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	inUniverse := map[F]bool{}
	for _, f := range universe {
		inUniverse[f] = true
	}
	mergeIf := func(a, b F) {
		if inUniverse[a] && inUniverse[b] {
			union(a, b)
		}
	}
	for id, g := range c.Gates {
		switch g.Type {
		case logic.And:
			for p := range g.Fanin {
				mergeIf(F{id, p, logic.Zero}, F{id, stem, logic.Zero})
			}
		case logic.Nand:
			for p := range g.Fanin {
				mergeIf(F{id, p, logic.Zero}, F{id, stem, logic.One})
			}
		case logic.Or:
			for p := range g.Fanin {
				mergeIf(F{id, p, logic.One}, F{id, stem, logic.One})
			}
		case logic.Nor:
			for p := range g.Fanin {
				mergeIf(F{id, p, logic.One}, F{id, stem, logic.Zero})
			}
		case logic.Buf, logic.DFF:
			mergeIf(F{id, 0, logic.Zero}, F{id, stem, logic.Zero})
			mergeIf(F{id, 0, logic.One}, F{id, stem, logic.One})
		case logic.Not:
			mergeIf(F{id, 0, logic.Zero}, F{id, stem, logic.One})
			mergeIf(F{id, 0, logic.One}, F{id, stem, logic.Zero})
		}
	}
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
				mergeIf(F{n, stem, logic.Zero}, F{reader, p, logic.Zero})
				mergeIf(F{n, stem, logic.One}, F{reader, p, logic.One})
			}
		}
	}
	cl := fault.Classes{ClassOf: make(map[F]int, len(universe))}
	idx := map[F]int{}
	for _, f := range universe {
		r := find(f)
		i, ok := idx[r]
		if !ok {
			i = len(cl.Reps)
			idx[r] = i
			cl.Reps = append(cl.Reps, r)
		}
		cl.ClassOf[f] = i
	}
	return cl
}

// CollapseEquiv must pick the same representatives, in the same order,
// and the same class for every fault as the reference — on every
// builtin, on fuzz-generated netlists (constants, tied pins, DFFs), and
// on partial, shuffled and duplicated universes, including faults
// outside the circuit.
func TestCollapseEquivMatchesReference(t *testing.T) {
	var cs []*logic.Circuit
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for seed := int64(0); seed < 64; seed++ {
		cs = append(cs, fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed))
	}
	rng := rand.New(rand.NewSource(7))
	for _, c := range cs {
		u := fault.Universe(c)
		partial := append([]fault.Fault(nil), u...)
		rng.Shuffle(len(partial), func(i, j int) { partial[i], partial[j] = partial[j], partial[i] })
		partial = append(partial[:len(partial)/2], partial[0], partial[1],
			fault.Fault{Gate: c.NumNets(), Pin: fault.Stem, SA: logic.One},
			fault.Fault{Gate: 0, Pin: 99, SA: logic.Zero})
		for _, universe := range [][]fault.Fault{u, partial} {
			got, want := fault.CollapseEquiv(c, universe), collapseEquivRef(c, universe)
			if !reflect.DeepEqual(got.Reps, want.Reps) {
				t.Fatalf("%s: %d reps, reference %d; first %v vs %v", c.Name, len(got.Reps), len(want.Reps),
					got.Reps[:min(4, len(got.Reps))], want.Reps[:min(4, len(want.Reps))])
			}
			if !reflect.DeepEqual(got.ClassOf, want.ClassOf) {
				t.Fatalf("%s: ClassOf differs from the reference", c.Name)
			}
		}
	}
}
