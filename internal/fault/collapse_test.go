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

// Collapse must give CollapseEquiv(c, Universe(c))'s representatives,
// and Class must answer for every fault what ClassOf holds — on the
// whole universe through Collapse, and on partial universes (with
// faults outside the circuit) through CollapseEquiv.
func TestCollapseMatchesCollapseEquiv(t *testing.T) {
	var cs []*logic.Circuit
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for seed := int64(0); seed < 32; seed++ {
		cs = append(cs, fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed))
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range cs {
		u := fault.Universe(c)
		want := fault.CollapseEquiv(c, u)
		got := fault.Collapse(c)
		if !reflect.DeepEqual(got.Reps, want.Reps) {
			t.Fatalf("%s: Collapse has %d reps, CollapseEquiv %d", c.Name, len(got.Reps), len(want.Reps))
		}
		if got.ClassOf != nil {
			t.Fatalf("%s: Collapse filled ClassOf", c.Name)
		}
		if got.UniverseSize() != len(u) || want.UniverseSize() != len(u) {
			t.Fatalf("%s: universe sizes %d and %d, want %d", c.Name, got.UniverseSize(), want.UniverseSize(), len(u))
		}
		partial := append([]fault.Fault(nil), u...)
		rng.Shuffle(len(partial), func(i, j int) { partial[i], partial[j] = partial[j], partial[i] })
		partial = append(partial[:len(partial)/3], partial[0],
			fault.Fault{Gate: c.NumNets(), Pin: fault.Stem, SA: logic.One},
			fault.Fault{Gate: 0, Pin: 99, SA: logic.Zero})
		part := fault.CollapseEquiv(c, partial)
		if part.UniverseSize() != len(part.ClassOf) {
			t.Fatalf("%s: partial universe size %d, ClassOf holds %d", c.Name, part.UniverseSize(), len(part.ClassOf))
		}
		probe := append(append([]fault.Fault(nil), u...), partial[len(partial)-2:]...)
		probe = append(probe, fault.Fault{Gate: -1, Pin: fault.Stem, SA: logic.Zero},
			fault.Fault{Gate: 0, Pin: fault.Stem, SA: logic.X})
		for _, f := range probe {
			for _, v := range []struct {
				name string
				cl   fault.Classes
				ref  map[fault.Fault]int
			}{{"whole", got, want.ClassOf}, {"partial", part, part.ClassOf}} {
				k, ok := v.cl.Class(f)
				wk, wok := v.ref[f]
				if k != wk || ok != wok {
					t.Fatalf("%s %s: Class(%v) = %d,%v, ClassOf holds %d,%v", c.Name, v.name, f, k, ok, wk, wok)
				}
			}
		}
	}
}
