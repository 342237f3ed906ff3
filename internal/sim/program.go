// Compiled levelized simulation kernel.
//
// Compile lowers a finalized netlist once into a flat instruction
// stream: one type-specialized instruction per net in levelized order,
// with 2-input fast-path opcodes for the common gates, a single
// contiguous fanin-index array for the n-ary fallback (no per-gate
// slice gather), and constant folding of Const0/Const1 feeds and tied
// inputs. The program is then executed scalar (ExecBool) or 64-way
// bit-parallel (Exec).
//
// Every folding rule used here (idempotence of AND/OR, constant
// absorption, XOR pair cancellation and parity flips) is an exact
// Boolean identity that also holds bitwise on 64-bit words, so the
// compiled kernel produces byte-identical net valuations to the
// interpreter for every input — the invariant the cross-kernel
// property tests pin down.
package sim

import (
	"fmt"
	"sort"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

var (
	cCompilePrograms = telemetry.Default().Counter("sim.compile.programs")
	cCompileFolded   = telemetry.Default().Counter("sim.compile.folded_gates")
	cCompileHashed   = telemetry.Default().Counter("sim.compile.hashed_gates")
	cKernelBoolEvals = telemetry.Default().Counter("sim.kernel.bool_evals")
	cKernelWordEvals = telemetry.Default().Counter("sim.kernel.word_evals")
	tKernelExec      = telemetry.Default().Timer("sim.kernel.exec")
)

// opcode is a compiled gate operation. The two-input fast paths cover
// the overwhelming share of gates in the bench circuits; everything
// else falls back to an n-ary reduce over the flat fanin array.
type opcode uint8

const (
	opConst0 opcode = iota
	opConst1
	opBuf
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// instr is one compiled operation: write net out from operand net(s).
// For 2-input opcodes a and b are net indices; for n-ary opcodes a is
// an offset into Program.fanins and b is the operand count.
type instr struct {
	op   opcode
	out  int32
	a, b int32
}

// Program is a circuit compiled for repeated evaluation. A Program is
// immutable after Compile and safe for concurrent use from any number
// of goroutines (each call supplies its own value storage).
type Program struct {
	c      *logic.Circuit
	code   []instr
	fanins []int32
	folded int
	hashed int
}

// Circuit returns the netlist the program was compiled from.
func (p *Program) Circuit() *logic.Circuit { return p.c }

// NumInstrs returns the instruction count (one per evaluated net).
func (p *Program) NumInstrs() int { return len(p.code) }

// Folded returns how many gates were simplified during compilation
// (constant feeds absorbed, tied inputs deduplicated, or the whole
// gate folded to a constant).
func (p *Program) Folded() int { return p.folded }

// Hashed returns how many gates structural hashing merged with an
// earlier twin: their instruction degrades to a copy of the twin's net
// (the net itself stays materialized — fault injection and view
// observation read arbitrary nets), and downstream operands read the
// twin directly.
func (p *Program) Hashed() int { return p.hashed }

// knownness of a net's value at compile time.
const (
	kUnknown uint8 = iota
	kZero
	kOne
)

// Compile lowers the levelized netlist into a Program. The circuit
// must be finalized; Compile panics otherwise (Order is empty only in
// degenerate source-only circuits, so the check uses the same entry
// condition as the interpreter: Level/Order populated by Finalize).
func Compile(c *logic.Circuit) *Program {
	// Span rather than bare timer: End observes the same sim.compile
	// timer and additionally records a trace event with the lowering
	// stats, so compiles show up in job span trees.
	span := telemetry.Default().StartSpan("sim.compile")
	p := &Program{
		c:    c,
		code: make([]instr, 0, len(c.Order)),
	}
	known := make([]uint8, c.NumNets())
	// alias maps each net to the earliest net proven to carry the same
	// value; operands are forwarded through it so structurally hashed
	// twins also canonicalize downstream operand lists.
	alias := make([]int32, c.NumNets())
	for i := range alias {
		alias[i] = int32(i)
	}
	seen := make(map[string]int32, len(c.Order))
	var keyBuf []byte
	var ins []int32 // simplified operand list, reused per gate
	for _, id := range c.Order {
		g := &c.Gates[id]
		switch g.Type {
		case logic.Const0:
			p.emitConst(id, false, known)
		case logic.Const1:
			p.emitConst(id, true, known)
		case logic.Buf, logic.Not:
			inv := g.Type == logic.Not
			f := g.Fanin[0]
			switch known[f] {
			case kZero:
				p.emitConst(id, inv, known)
				p.folded++
			case kOne:
				p.emitConst(id, !inv, known)
				p.folded++
			default:
				op := opBuf
				if inv {
					op = opNot
				}
				p.code = append(p.code, instr{op: op, out: int32(id), a: alias[f]})
			}
		case logic.And, logic.Nand:
			ins = p.compileAndOr(id, g, known, alias, ins, true, g.Type == logic.Nand)
		case logic.Or, logic.Nor:
			ins = p.compileAndOr(id, g, known, alias, ins, false, g.Type == logic.Nor)
		case logic.Xor, logic.Xnor:
			ins = p.compileXor(id, g, known, alias, ins, g.Type == logic.Xnor)
		default:
			panic(fmt.Sprintf("sim: cannot compile gate type %v", g.Type))
		}
		// Structural hashing: a gate whose lowered instruction matches an
		// earlier one (same opcode, same canonical operands) must compute
		// the identical word, so its instruction degrades to a copy. The
		// net stays materialized — fault injection and view observation
		// read arbitrary nets — but the redundant evaluation is gone and
		// downstream readers forward to the single survivor.
		in := &p.code[len(p.code)-1]
		if in.op == opBuf {
			alias[id] = in.a
			continue
		}
		keyBuf = p.instrKey(keyBuf[:0], in)
		if twin, ok := seen[string(keyBuf)]; ok {
			*in = instr{op: opBuf, out: in.out, a: twin}
			alias[id] = twin
			p.hashed++
		} else {
			seen[string(keyBuf)] = in.out
		}
	}
	cCompilePrograms.Inc()
	cCompileFolded.Add(int64(p.folded))
	cCompileHashed.Add(int64(p.hashed))
	span.SetAttr("gates", fmt.Sprint(len(c.Order)))
	span.SetAttr("folded", fmt.Sprint(p.folded))
	span.SetAttr("hashed", fmt.Sprint(p.hashed))
	span.End()
	return p
}

// instrKey encodes an instruction's structural identity: opcode plus
// canonically ordered operands. Every multi-operand opcode here is
// commutative, so sorting the operand list canonicalizes it.
func (p *Program) instrKey(buf []byte, in *instr) []byte {
	appendNet := func(buf []byte, v int32) []byte {
		return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	buf = append(buf, byte(in.op))
	switch {
	case in.op == opConst0 || in.op == opConst1:
	case in.op == opNot:
		buf = appendNet(buf, in.a)
	case in.op <= opXnor2:
		a, b := in.a, in.b
		if b < a {
			a, b = b, a
		}
		buf = appendNet(appendNet(buf, a), b)
	default:
		ops := append([]int32(nil), p.fanins[in.a:in.a+in.b]...)
		sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
		for _, o := range ops {
			buf = appendNet(buf, o)
		}
	}
	return buf
}

// emitConst emits a constant write for net id and records its value
// for folding in downstream gates.
func (p *Program) emitConst(id int, v bool, known []uint8) {
	op := opConst0
	known[id] = kZero
	if v {
		op = opConst1
		known[id] = kOne
	}
	p.code = append(p.code, instr{op: op, out: int32(id)})
}

// compileAndOr lowers an AND/NAND (and=true) or OR/NOR (and=false)
// gate: operands known to be the identity element (1 for AND, 0 for
// OR) are dropped, a known controlling operand (0 for AND, 1 for OR)
// folds the gate to a constant, and duplicate operands collapse by
// idempotence. inv selects the inverting variant.
func (p *Program) compileAndOr(id int, g *logic.Gate, known []uint8, alias, ins []int32, and, inv bool) []int32 {
	identity, controlling := kOne, kZero
	if !and {
		identity, controlling = kZero, kOne
	}
	ins = ins[:0]
	controlled := false
	for _, f := range g.Fanin {
		switch known[f] {
		case identity:
			// dropped: cannot affect the reduce
		case controlling:
			controlled = true
		default:
			if af := alias[f]; !containsNet(ins, af) {
				ins = append(ins, af)
			}
		}
	}
	if controlled {
		// Result is the controlling value (0 for AND, 1 for OR), then
		// inverted for NAND/NOR.
		p.emitConst(id, !and != inv, known)
		p.folded++
		return ins
	}
	if len(ins) != len(g.Fanin) {
		p.folded++
	}
	switch len(ins) {
	case 0:
		// Empty reduce yields the identity element.
		p.emitConst(id, and != inv, known)
	case 1:
		op := opBuf
		if inv {
			op = opNot
		}
		p.code = append(p.code, instr{op: op, out: int32(id), a: ins[0]})
	case 2:
		var op opcode
		switch {
		case and && !inv:
			op = opAnd2
		case and && inv:
			op = opNand2
		case !and && !inv:
			op = opOr2
		default:
			op = opNor2
		}
		p.code = append(p.code, instr{op: op, out: int32(id), a: ins[0], b: ins[1]})
	default:
		var op opcode
		switch {
		case and && !inv:
			op = opAndN
		case and && inv:
			op = opNandN
		case !and && !inv:
			op = opOrN
		default:
			op = opNorN
		}
		p.emitNary(op, id, ins)
	}
	return ins
}

// compileXor lowers an XOR/XNOR gate: known-0 operands drop, known-1
// operands flip the output parity, and paired duplicate operands
// cancel (x XOR x = 0). inv starts the parity at XNOR.
func (p *Program) compileXor(id int, g *logic.Gate, known []uint8, alias, ins []int32, inv bool) []int32 {
	flip := inv
	ins = ins[:0]
	for _, f := range g.Fanin {
		switch known[f] {
		case kZero:
			// dropped
		case kOne:
			flip = !flip
		default:
			af := alias[f]
			if i := indexOfNet(ins, af); i >= 0 {
				ins = append(ins[:i], ins[i+1:]...)
			} else {
				ins = append(ins, af)
			}
		}
	}
	if len(ins) != len(g.Fanin) {
		p.folded++
	}
	switch len(ins) {
	case 0:
		p.emitConst(id, flip, known)
	case 1:
		op := opBuf
		if flip {
			op = opNot
		}
		p.code = append(p.code, instr{op: op, out: int32(id), a: ins[0]})
	case 2:
		op := opXor2
		if flip {
			op = opXnor2
		}
		p.code = append(p.code, instr{op: op, out: int32(id), a: ins[0], b: ins[1]})
	default:
		op := opXorN
		if flip {
			op = opXnorN
		}
		p.emitNary(op, id, ins)
	}
	return ins
}

// emitNary appends an n-ary instruction, copying the operand list into
// the flat fanin array.
func (p *Program) emitNary(op opcode, id int, ins []int32) {
	off := int32(len(p.fanins))
	p.fanins = append(p.fanins, ins...)
	p.code = append(p.code, instr{op: op, out: int32(id), a: off, b: int32(len(ins))})
}

func containsNet(ins []int32, f int32) bool { return indexOfNet(ins, f) >= 0 }

func indexOfNet(ins []int32, f int32) int {
	for i, x := range ins {
		if x == f {
			return i
		}
	}
	return -1
}

// ExecBool runs the compiled scalar kernel over vals (one bool per
// net). Source nets (PIs, DFF outputs) must be preloaded by the
// caller; every evaluated net is written.
func (p *Program) ExecBool(vals []bool) {
	fan := p.fanins
	for _, ins := range p.code {
		switch ins.op {
		case opConst0:
			vals[ins.out] = false
		case opConst1:
			vals[ins.out] = true
		case opBuf:
			vals[ins.out] = vals[ins.a]
		case opNot:
			vals[ins.out] = !vals[ins.a]
		case opAnd2:
			vals[ins.out] = vals[ins.a] && vals[ins.b]
		case opNand2:
			vals[ins.out] = !(vals[ins.a] && vals[ins.b])
		case opOr2:
			vals[ins.out] = vals[ins.a] || vals[ins.b]
		case opNor2:
			vals[ins.out] = !(vals[ins.a] || vals[ins.b])
		case opXor2:
			vals[ins.out] = vals[ins.a] != vals[ins.b]
		case opXnor2:
			vals[ins.out] = vals[ins.a] == vals[ins.b]
		case opAndN, opNandN:
			v := true
			for _, f := range fan[ins.a : ins.a+ins.b] {
				if !vals[f] {
					v = false
					break
				}
			}
			vals[ins.out] = v != (ins.op == opNandN)
		case opOrN, opNorN:
			v := false
			for _, f := range fan[ins.a : ins.a+ins.b] {
				if vals[f] {
					v = true
					break
				}
			}
			vals[ins.out] = v != (ins.op == opNorN)
		default: // opXorN, opXnorN
			v := ins.op == opXnorN
			for _, f := range fan[ins.a : ins.a+ins.b] {
				if vals[f] {
					v = !v
				}
			}
			vals[ins.out] = v
		}
	}
	cKernelBoolEvals.Add(int64(len(p.code)))
}

// Exec runs the compiled 64-way bit-parallel kernel over vals (one
// word per net). Source nets must be preloaded; every evaluated net is
// written.
func (p *Program) Exec(vals []uint64) {
	fan := p.fanins
	for _, ins := range p.code {
		switch ins.op {
		case opConst0:
			vals[ins.out] = 0
		case opConst1:
			vals[ins.out] = ^uint64(0)
		case opBuf:
			vals[ins.out] = vals[ins.a]
		case opNot:
			vals[ins.out] = ^vals[ins.a]
		case opAnd2:
			vals[ins.out] = vals[ins.a] & vals[ins.b]
		case opNand2:
			vals[ins.out] = ^(vals[ins.a] & vals[ins.b])
		case opOr2:
			vals[ins.out] = vals[ins.a] | vals[ins.b]
		case opNor2:
			vals[ins.out] = ^(vals[ins.a] | vals[ins.b])
		case opXor2:
			vals[ins.out] = vals[ins.a] ^ vals[ins.b]
		case opXnor2:
			vals[ins.out] = ^(vals[ins.a] ^ vals[ins.b])
		case opAndN, opNandN:
			v := ^uint64(0)
			for _, f := range fan[ins.a : ins.a+ins.b] {
				v &= vals[f]
			}
			if ins.op == opNandN {
				v = ^v
			}
			vals[ins.out] = v
		case opOrN, opNorN:
			v := uint64(0)
			for _, f := range fan[ins.a : ins.a+ins.b] {
				v |= vals[f]
			}
			if ins.op == opNorN {
				v = ^v
			}
			vals[ins.out] = v
		default: // opXorN, opXnorN
			v := uint64(0)
			for _, f := range fan[ins.a : ins.a+ins.b] {
				v ^= vals[f]
			}
			if ins.op == opXnorN {
				v = ^v
			}
			vals[ins.out] = v
		}
	}
	cKernelWordEvals.Add(int64(len(p.code)))
}

// checkWidths validates Eval-style inputs against the program's
// circuit, mirroring the interpreter's panics.
func (p *Program) checkWidths(nPI, nState int) {
	if nPI != len(p.c.PIs) {
		panic(fmt.Sprintf("sim: got %d input values for %d primary inputs", nPI, len(p.c.PIs)))
	}
	if nState != len(p.c.DFFs) {
		panic(fmt.Sprintf("sim: got %d state values for %d flip-flops", nState, len(p.c.DFFs)))
	}
}

// EvalInto loads pi and state into vals (one bool per net) and runs the
// scalar kernel; sim.EvalInto is this on the circuit's cached program.
func (p *Program) EvalInto(pi, state, vals []bool) {
	p.checkWidths(len(pi), len(state))
	for i, id := range p.c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range p.c.DFFs {
		vals[id] = state[i]
	}
	p.ExecBool(vals)
}

// EvalWordsInto loads pi and state into vals (one word per net) and
// runs the 64-way kernel; sim.EvalWordsInto is this on the circuit's
// cached program.
func (p *Program) EvalWordsInto(pi, state []uint64, vals Words) {
	p.checkWidths(len(pi), len(state))
	defer tKernelExec.Time()()
	for i, id := range p.c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range p.c.DFFs {
		vals[id] = state[i]
	}
	p.Exec(vals)
}
