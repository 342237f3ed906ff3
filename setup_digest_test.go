package dft

// A digest of per-job setup: the gate table core.Load builds from a
// .bench document and the collapsed fault list Design.Faults returns,
// in order. Every builtin and eight grade-sized random netlists are
// rendered with WriteBench and loaded back, so any change to gate
// numbering, names, fanin order or the choice and order of
// equivalence-class representatives fails here.

import (
	"bytes"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/logic"
)

// setupDigest loads src and folds its gate table, PIs, POs and
// collapsed faults into tr.
func setupDigest(t *testing.T, tr *trace, name string, src []byte) {
	t.Helper()
	d, err := core.Load(name, bytes.NewReader(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c := d.Circuit
	tr.add("%s %d", c.Name, c.NumNets())
	for id, g := range c.Gates {
		tr.add("%d %s %v %v", id, g.Name, g.Type, g.Fanin)
	}
	tr.add("pi %v po %v", c.PIs, c.POs)
	faults := d.Faults()
	tr.add("faults %d", len(faults))
	for _, f := range faults {
		tr.add("%d.%d/%v", f.Gate, f.Pin, f.SA)
	}
}

func TestCollapsedFaultsDigest(t *testing.T) {
	builtins := newTrace()
	for _, name := range circuits.BuiltinNames() {
		c, err := circuits.Builtin(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		setupDigest(t, builtins, name, []byte(logic.BenchString(c)))
	}
	random := newTrace()
	for i := 0; i < 8; i++ {
		c := circuits.RandomCircuit(rand.New(rand.NewSource(int64(i+1))), 64, 2000+160*i, 32, 4)
		var b bytes.Buffer
		if err := logic.WriteBench(&b, c); err != nil {
			t.Fatal(err)
		}
		setupDigest(t, random, c.Name, b.Bytes())
	}
	for _, tc := range []struct {
		set  string
		tr   *trace
		want string
	}{
		{"builtins", builtins, "b12d0b4a3804dad9"},
		{"random", random, "7fbf6dde41076709"},
	} {
		if got := tc.tr.String(); got != tc.want {
			t.Errorf("%s: setup digest %s, want %s", tc.set, got, tc.want)
		}
	}
}
