package sim

import "dft/internal/logic"

// Topology is the flat, view-independent structure of a finalized
// circuit that event-driven engines walk: each net's gate operator,
// fanins and deduplicated combinational readers as CSR arrays,
// combinational levels, and each gate's position in c.Order. The
// operator table is the one both PODEM's five-valued implication and
// the fault kernel's 64-pattern words evaluate gates from. It is
// immutable once built and shared read-only by every user of the
// circuit (TopologyFor caches it beside the compiled program).
type Topology struct {
	Op       []logic.Op // gate operator of net n (see logic.Op); OpAnd for source elements
	FanStart []int32    // fanins of net n: Fanin[FanStart[n]:FanStart[n+1]]
	Fanin    []int32
	RdStart  []int32 // combinational readers of n, deduplicated: Readers[RdStart[n]:RdStart[n+1]]
	Readers  []int32
	Level    []int32
	OrderPos []int32 // index of gate n in c.Order; -1 for source elements
}

// newTopology flattens c; TopologyFor caches the result per circuit.
func newTopology(c *logic.Circuit) *Topology {
	n := c.NumNets()
	t := &Topology{
		Op:       make([]logic.Op, n),
		FanStart: make([]int32, n+1),
		RdStart:  make([]int32, n+1),
		Level:    make([]int32, n),
		OrderPos: make([]int32, n),
	}
	for id, g := range c.Gates {
		t.Op[id] = g.Type.Op()
		t.Level[id] = int32(c.Level[id])
		t.OrderPos[id] = -1
		for _, f := range g.Fanin {
			t.Fanin = append(t.Fanin, int32(f))
		}
		t.FanStart[id+1] = int32(len(t.Fanin))
		start := len(t.Readers)
		for _, r := range c.Fanout[id] {
			if !c.Gates[r].Type.IsCombinational() {
				continue // DFF capture edges are sequential, invisible to one combinational cycle
			}
			if len(t.Readers) == start || t.Readers[len(t.Readers)-1] != int32(r) {
				t.Readers = append(t.Readers, int32(r)) // a gate's fanout entries are adjacent
			}
		}
		t.RdStart[id+1] = int32(len(t.Readers))
	}
	for i, id := range c.Order {
		t.OrderPos[id] = int32(i)
	}
	return t
}

// Fanins returns net n's fanin nets.
func (t *Topology) Fanins(n int32) []int32 { return t.Fanin[t.FanStart[n]:t.FanStart[n+1]] }

// ReadersOf returns the combinational gates reading net n, each once.
func (t *Topology) ReadersOf(n int32) []int32 { return t.Readers[t.RdStart[n]:t.RdStart[n+1]] }
