// Pre-compile netlist reduction.
//
// Reduce shrinks a finalized netlist: constants propagate through the
// logic, structurally identical gates merge (structural hashing),
// Buf/single-operand wrappers collapse into aliases, and single-fanout
// gates of an associative type are absorbed into a compatible reader —
// the fanout-free-region collapse that turns AND-into-NAND trees into
// one n-ary gate. The same Boolean identities drive the compiled
// kernel's instruction folding (program.go); Reduce applies them at the
// netlist level and returns a remap table so views and fault sites on
// the original netlist survive the move. It is a standalone library
// transform, exposed as dft.Reduce: no pass, job or command of the
// toolkit runs it, so it shrinks only what a caller chooses to hand it.
//
// The reduced circuit is guaranteed to stay structurally clean: if the
// input passes fuzzdiff.Lint without diagnostics, so does the output.
// The subtle case is constant folding, which can orphan a net (a
// primary input whose only reader folds away would become a dangling
// net). Reduce resolves this with an orphan-repair fixpoint: any fold
// or collapse that would leave a materialized net unread and
// unobserved is downgraded to a plain rewrite of the gate (same type,
// operands mapped), which computes the identical value but keeps its
// operands read. PI order, PO order and count, and DFF order and
// count are always preserved exactly.
package sim

import (
	"fmt"
	"sort"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

var (
	cReducePasses    = telemetry.Default().Counter("sim.reduce.passes")
	cReduceHashed    = telemetry.Default().Counter("sim.reduce.hashed_gates")
	cReduceFolded    = telemetry.Default().Counter("sim.reduce.folded_gates")
	cReduceCollapsed = telemetry.Default().Counter("sim.reduce.collapsed_gates")
)

// ReduceStats summarizes one reduction pass.
type ReduceStats struct {
	NetsIn, NetsOut   int // total elements before/after
	GatesIn, GatesOut int // combinational gates before/after
	Folded            int // gates whose value proved constant
	Hashed            int // gates merged with a structural twin
	Collapsed         int // wrappers aliased away + gates absorbed into their reader
	Repaired          int // folds downgraded to keep a net observable-clean
}

// ReduceMap carries the reduced netlist's relation to the original so
// fault sites, views and per-net data survive the reduction.
type ReduceMap struct {
	// NetOf maps each original net to the reduced net carrying the
	// identical value, or -1 when the net was eliminated (folded to a
	// constant, absorbed into its reader, or merged into a twin whose
	// reduced net then appears as some other original net's image).
	NetOf []int
	// ConstOf reports nets whose value proved constant: -1 unknown,
	// otherwise 0 or 1. A net may have both a constant value and a
	// reduced image when orphan repair kept it materialized.
	ConstOf []int8
	// Stats summarizes what the pass did.
	Stats ReduceStats
}

// decision kinds for one original element.
const (
	dMaterialize uint8 = iota // emit a gate (simplified type + operands)
	dRaw                      // emit the original gate with mapped operands (orphan repair)
	dConst                    // value is a known constant; no gate emitted
	dAlias                    // value equals another net's; no gate emitted
	dAbsorb                   // operand list spliced into the single reader
	dSource                   // PI or DFF: always materialized
)

// rdecision is the analysis verdict for one original element.
type rdecision struct {
	kind uint8
	cval bool // for dConst
	to   int  // for dAlias: original net whose value this one equals
	typ  logic.GateType
	ops  []int // simplified operand list, original root net ids
	flip bool  // for dAbsorb of XOR chains: parity carried to the reader
}

// Reduce returns a reduced copy of the finalized circuit c and the
// remap table relating the two. When no structural reduction applies
// (or the circuit shape cannot be rebuilt through the public builder
// API), it may return c itself with an identity map.
func Reduce(c *logic.Circuit) (*logic.Circuit, *ReduceMap) {
	span := telemetry.Default().StartSpan("sim.reduce")
	defer span.End()
	cReducePasses.Inc()
	n := c.NumNets()
	rm := &ReduceMap{
		NetOf:   make([]int, n),
		ConstOf: make([]int8, n),
		Stats: ReduceStats{
			NetsIn:  n,
			GatesIn: c.NumGates(),
		},
	}
	for i := range rm.ConstOf {
		rm.ConstOf[i] = -1
	}
	if len(c.PIs) == 0 && len(c.DFFs) > 0 {
		// A stateful circuit with no primary inputs cannot be rebuilt
		// through the builder API (the first DFF would have no valid
		// placeholder operand). Degenerate and rare: return it as-is.
		for i := range rm.NetOf {
			rm.NetOf[i] = i
		}
		rm.Stats.NetsOut = n
		rm.Stats.GatesOut = rm.Stats.GatesIn
		return c, rm
	}

	r := &reducer{c: c, dec: make([]rdecision, n), rm: rm}
	r.analyze()
	r.repairOrphans()
	out := r.emit()
	rm.Stats.NetsOut = out.NumNets()
	rm.Stats.GatesOut = out.NumGates()
	cReduceFolded.Add(int64(rm.Stats.Folded))
	cReduceHashed.Add(int64(rm.Stats.Hashed))
	cReduceCollapsed.Add(int64(rm.Stats.Collapsed))
	span.SetAttr("gates_in", fmt.Sprint(rm.Stats.GatesIn))
	span.SetAttr("gates_out", fmt.Sprint(rm.Stats.GatesOut))
	return out, rm
}

type reducer struct {
	c   *logic.Circuit
	dec []rdecision
	rm  *ReduceMap
	po  []bool // original net is a primary output
}

// aliasRoot resolves an original net through alias decisions to the
// net that carries its value.
func (r *reducer) aliasRoot(id int) int {
	for r.dec[id].kind == dAlias {
		id = r.dec[id].to
	}
	return id
}

// kvalOf returns the known constant value of an original net, or -1.
func (r *reducer) kvalOf(id int) int8 { return r.rm.ConstOf[r.aliasRoot(id)] }

// analyze walks the netlist once in topological order and assigns
// every element a decision: sources stay, gates fold to constants,
// collapse to aliases, get absorbed into their single compatible
// reader, merge with a structural twin, or materialize simplified.
func (r *reducer) analyze() {
	c := r.c
	r.po = make([]bool, c.NumNets())
	for _, po := range c.POs {
		r.po[po] = true
	}
	// Single-fanout gates of a non-inverting associative type whose one
	// reader has a compatible type are candidates for absorption; POs
	// and DFF feeds are excluded (the reader must be combinational).
	absorbable := func(id int) bool {
		g := &c.Gates[id]
		if r.po[id] || len(c.Fanout[id]) != 1 {
			return false
		}
		rd := c.Fanout[id][0]
		rt := c.Gates[rd].Type
		switch g.Type {
		case logic.And:
			return rt == logic.And || rt == logic.Nand
		case logic.Or:
			return rt == logic.Or || rt == logic.Nor
		case logic.Xor:
			return rt == logic.Xor || rt == logic.Xnor
		}
		return false
	}

	for _, pi := range c.PIs {
		r.dec[pi] = rdecision{kind: dSource, typ: logic.Input}
	}
	for _, d := range c.DFFs {
		r.dec[d] = rdecision{kind: dSource, typ: logic.DFF}
	}

	hash := map[string]int{} // structural key -> original net id of the twin
	var keyBuf []byte
	for _, id := range c.Order {
		g := &c.Gates[id]
		var d rdecision
		switch g.Type {
		case logic.Const0:
			d = rdecision{kind: dConst, cval: false}
		case logic.Const1:
			d = rdecision{kind: dConst, cval: true}
		case logic.Buf, logic.Not:
			d = r.simplifyUnary(g)
		case logic.And, logic.Nand:
			d = r.simplifyAndOr(g, true, g.Type == logic.Nand)
		case logic.Or, logic.Nor:
			d = r.simplifyAndOr(g, false, g.Type == logic.Nor)
		case logic.Xor, logic.Xnor:
			d = r.simplifyXor(g, g.Type == logic.Xnor)
		default:
			d = rdecision{kind: dRaw, typ: g.Type}
		}

		switch d.kind {
		case dConst:
			r.rm.ConstOf[id] = 0
			if d.cval {
				r.rm.ConstOf[id] = 1
			}
			r.rm.Stats.Folded++
		case dAlias:
			r.rm.Stats.Collapsed++
		case dMaterialize:
			if absorbable(id) {
				d.kind = dAbsorb
				r.rm.Stats.Collapsed++
				break
			}
			// Structural hashing: a gate with a twin's exact type and
			// operand multiset carries the twin's value.
			keyBuf = structKey(keyBuf[:0], d.typ, d.ops)
			if twin, ok := hash[string(keyBuf)]; ok {
				d = rdecision{kind: dAlias, to: twin}
				r.rm.Stats.Hashed++
			} else {
				hash[string(keyBuf)] = id
			}
		}
		r.dec[id] = d
	}
}

// structKey encodes (type, sorted operands) for the structural hash.
// Every reducible gate type is commutative, so sorting canonicalizes.
func structKey(buf []byte, t logic.GateType, ops []int) []byte {
	sorted := append([]int(nil), ops...)
	sort.Ints(sorted)
	buf = append(buf, byte(t))
	for _, o := range sorted {
		buf = append(buf, byte(o), byte(o>>8), byte(o>>16), byte(o>>24))
	}
	return buf
}

// operand resolution outcome used by the simplifiers.
type roperand struct {
	known int8  // -1 unknown, else 0/1
	id    int   // alias-resolved original net (valid when known < 0)
	ops   []int // spliced absorbed list (nil unless absorbed)
	flip  bool  // parity carried by a spliced XOR list
}

// resolve maps one original fanin net to a constant, a spliced
// absorbed operand list, or a value-carrying net.
func (r *reducer) resolve(f int) roperand {
	root := r.aliasRoot(f)
	if kv := r.rm.ConstOf[root]; kv >= 0 {
		return roperand{known: kv}
	}
	if r.dec[root].kind == dAbsorb {
		return roperand{known: -1, ops: r.dec[root].ops, flip: r.dec[root].flip}
	}
	return roperand{known: -1, id: root}
}

func (r *reducer) simplifyUnary(g *logic.Gate) rdecision {
	inv := g.Type == logic.Not
	op := r.resolve(g.Fanin[0])
	if op.known >= 0 {
		return rdecision{kind: dConst, cval: (op.known == 1) != inv}
	}
	if op.ops != nil {
		// A Buf/Not wrapper around an absorbed gate: the absorption was
		// decided against the wrapper as single reader; keep the wrapper
		// on the materialized form of the inner gate instead.
		inner := r.aliasRoot(g.Fanin[0])
		r.unabsorb(inner)
		op.id = inner
	}
	if !inv {
		return rdecision{kind: dAlias, to: op.id}
	}
	return rdecision{kind: dMaterialize, typ: logic.Not, ops: []int{op.id}}
}

// unabsorb downgrades an absorb decision back to materialize; used
// when a reader turns out not to splice after all.
func (r *reducer) unabsorb(id int) {
	if r.dec[id].kind == dAbsorb {
		r.dec[id].kind = dMaterialize
		r.rm.Stats.Collapsed--
	}
}

func (r *reducer) simplifyAndOr(g *logic.Gate, and, inv bool) rdecision {
	identity, controlling := int8(1), int8(0)
	if !and {
		identity, controlling = 0, 1
	}
	base := logic.And
	if !and {
		base = logic.Or
	}
	var ops []int
	add := func(id int) {
		for _, x := range ops {
			if x == id {
				return // idempotence: a AND a = a
			}
		}
		ops = append(ops, id)
	}
	controlled := false
	for _, f := range g.Fanin {
		op := r.resolve(f)
		switch {
		case op.known == identity:
			// dropped: cannot affect the reduce
		case op.known == controlling:
			controlled = true
		case op.ops != nil && !op.flip:
			// Fanout-free-region collapse: splice the absorbed gate's
			// operands (only same-base lists reach here by construction).
			for _, x := range op.ops {
				add(x)
			}
		case op.ops != nil:
			// defensive: a flipped list cannot come from an AND/OR chain
			inner := r.aliasRoot(f)
			r.unabsorb(inner)
			add(inner)
		default:
			add(op.id)
		}
	}
	if controlled {
		return rdecision{kind: dConst, cval: (controlling == 1) != inv}
	}
	switch len(ops) {
	case 0:
		return rdecision{kind: dConst, cval: (identity == 1) != inv}
	case 1:
		if !inv {
			return rdecision{kind: dAlias, to: ops[0]}
		}
		return rdecision{kind: dMaterialize, typ: logic.Not, ops: ops}
	}
	typ := base
	if inv {
		typ = logic.Nand
		if !and {
			typ = logic.Nor
		}
	}
	return rdecision{kind: dMaterialize, typ: typ, ops: ops}
}

func (r *reducer) simplifyXor(g *logic.Gate, inv bool) rdecision {
	flip := inv
	var ops []int
	add := func(id int) {
		for i, x := range ops {
			if x == id {
				// pair cancellation: a XOR a = 0
				ops = append(ops[:i], ops[i+1:]...)
				return
			}
		}
		ops = append(ops, id)
	}
	for _, f := range g.Fanin {
		op := r.resolve(f)
		switch {
		case op.known == 0:
			// dropped
		case op.known == 1:
			flip = !flip
		case op.ops != nil:
			if op.flip {
				flip = !flip
			}
			for _, x := range op.ops {
				add(x)
			}
		default:
			add(op.id)
		}
	}
	switch len(ops) {
	case 0:
		return rdecision{kind: dConst, cval: flip}
	case 1:
		if !flip {
			return rdecision{kind: dAlias, to: ops[0]}
		}
		// flip must ride along: if this gate is later absorbed into an
		// Xor/Xnor reader, the splice sees the operand list plus parity.
		return rdecision{kind: dMaterialize, typ: logic.Not, ops: ops, flip: true}
	}
	typ := logic.Xor
	if flip {
		typ = logic.Xnor
	}
	// typ carries the parity for emission; flip carries it for splicing
	// consumers, which see the raw operand list.
	return rdecision{kind: dMaterialize, typ: typ, ops: ops, flip: flip}
}

// repairOrphans iterates until every materialized net is read or
// observed in the planned output. A fold/collapse whose disappearance
// would orphan a net is downgraded: the orphan's first original reader
// is rewritten as its original gate with mapped operands (identical
// value, original reads), which may materialize further nets; the loop
// re-checks until stable. Each round flips at least one decision to a
// more-materialized state, so it terminates.
func (r *reducer) repairOrphans() {
	c := r.c
	n := c.NumNets()
	reads := make([]int, n)
	// countRead mirrors emission's operand mapping exactly: the output
	// reads the root net iff the root is materialized (a net folded to a
	// constant AND kept materialized by an earlier repair round is still
	// read — only eliminated constants resolve to the shared Const gate).
	countRead := func(f int) {
		if root := r.aliasRoot(f); r.materialized(root) {
			reads[root]++
		}
	}
	for round := 0; ; round++ {
		for i := range reads {
			reads[i] = 0
		}
		// Count planned reads against original root ids.
		for id := range c.Gates {
			d := &r.dec[id]
			switch d.kind {
			case dMaterialize:
				for _, op := range d.ops {
					countRead(op)
				}
			case dRaw:
				for _, f := range c.Gates[id].Fanin {
					countRead(f)
				}
			case dSource:
				if c.Gates[id].Type == logic.DFF {
					countRead(c.Gates[id].Fanin[0])
				}
			}
		}
		observed := make([]bool, n)
		for _, po := range c.POs {
			if root := r.aliasRoot(po); r.materialized(root) {
				observed[root] = true
			}
		}
		fixed := 0
		for id := 0; id < n; id++ {
			if !r.materialized(id) || reads[id] > 0 || observed[id] {
				continue
			}
			// id is planned but unread and unobserved. If the original
			// circuit left it dangling too, reproducing that is fine;
			// otherwise rewrite one original reader to restore a read.
			if len(c.Fanout[id]) == 0 && !r.po[id] {
				continue
			}
			// A truly unread materialized net cannot have a dRaw or DFF
			// reader (those read every operand), so some reader here is
			// always downgradable; the bool guards termination anyway.
			for _, reader := range c.Fanout[id] {
				if r.downgrade(reader) {
					fixed++
					break
				}
			}
		}
		if fixed == 0 {
			return
		}
		r.rm.Stats.Repaired += fixed
	}
}

// materialized reports whether original net id has a planned gate in
// the output.
func (r *reducer) materialized(id int) bool {
	switch r.dec[id].kind {
	case dMaterialize, dRaw, dSource:
		return true
	}
	return false
}

// downgrade rewrites a gate's decision to dRaw: original type, all
// original operands (mapped), identical value. Any operand that was
// folded away must materialize again for the raw gate to read — for
// constants a shared Const gate is emitted on demand; aliases resolve
// to their root; absorbed operands revert to materialized gates. It
// reports whether the decision actually changed.
func (r *reducer) downgrade(id int) bool {
	c := r.c
	d := &r.dec[id]
	switch d.kind {
	case dConst:
		r.rm.Stats.Folded--
	case dAlias:
		r.rm.Stats.Collapsed--
	case dAbsorb:
		r.rm.Stats.Collapsed--
	case dMaterialize:
		// raw keeps every original read where simplified ops may not
	case dSource, dRaw:
		return false
	}
	*d = rdecision{kind: dRaw, typ: c.Gates[id].Type}
	// A raw gate reads every original operand: revert absorbed
	// operands so they exist to be read.
	for _, f := range c.Gates[id].Fanin {
		root := r.aliasRoot(f)
		if r.dec[root].kind == dAbsorb {
			r.unabsorb(root)
		}
	}
	return true
}

// emit builds the reduced circuit from the final decisions.
func (r *reducer) emit() *logic.Circuit {
	c := r.c
	nc := logic.New(c.Name + "_reduced")
	rm := r.rm
	mapped := make([]int, c.NumNets())
	for i := range mapped {
		mapped[i] = -1
	}
	constNet := [2]int{-1, -1}
	useConst := func(v int8) int {
		if constNet[v] < 0 {
			t := logic.Const0
			if v == 1 {
				t = logic.Const1
			}
			constNet[v] = nc.AddGate(t, "")
		}
		return constNet[v]
	}
	// operand mapping: constants get shared Const gates, aliases follow
	// their root, everything else must already be materialized.
	mapOp := func(f int) int {
		root := r.aliasRoot(f)
		if kv := rm.ConstOf[root]; kv >= 0 && mapped[root] < 0 {
			return useConst(kv)
		}
		return mapped[root]
	}

	for _, pi := range c.PIs {
		mapped[pi] = nc.AddInput(c.Gates[pi].Name)
	}
	dffPlaceholder := 0 // a valid net: PIs exist whenever DFFs do (guarded in Reduce)
	for _, d := range c.DFFs {
		mapped[d] = nc.AddDFF(c.Gates[d].Name, dffPlaceholder)
	}
	for _, id := range c.Order {
		d := &r.dec[id]
		switch d.kind {
		case dMaterialize:
			ops := make([]int, len(d.ops))
			for i, op := range d.ops {
				ops[i] = mapped[r.aliasRoot(op)]
			}
			mapped[id] = nc.AddGate(d.typ, c.Gates[id].Name, ops...)
		case dRaw:
			g := &c.Gates[id]
			ops := make([]int, len(g.Fanin))
			for i, f := range g.Fanin {
				ops[i] = mapOp(f)
			}
			mapped[id] = nc.AddGate(g.Type, g.Name, ops...)
		}
	}
	// Patch DFF D inputs now that every driver exists.
	for _, d := range c.DFFs {
		nc.Gates[mapped[d]].Fanin[0] = mapOp(c.Gates[d].Fanin[0])
	}
	// Primary outputs, in order; a PO on a folded net observes the
	// shared constant.
	for _, po := range c.POs {
		nc.MarkOutput(mapOp(po))
	}
	// Publish the remap: aliases share their root's image.
	for id := range c.Gates {
		rm.NetOf[id] = mapped[r.aliasRoot(id)]
	}
	return nc.MustFinalize()
}
