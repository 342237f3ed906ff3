// Compiled levelized simulation kernel.
//
// Compile lowers a finalized netlist once into a flat instruction
// stream: one type-specialized instruction per net in levelized order,
// with 2-input fast-path opcodes for the common gates and a single
// contiguous fanin-index array for the n-ary fallback (no per-gate
// slice gather). The program is then executed scalar (ExecBool) or
// 64-way bit-parallel (Exec).
//
// The lowering is a straight translation: each instruction evaluates
// its gate's own operator over its own fanins, in fanin order, so the
// compiled kernel produces byte-identical net valuations to the
// interpreter for every input — the invariant the cross-kernel
// property tests pin down.
package sim

import (
	"fmt"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

var (
	cCompilePrograms = telemetry.Default().Counter("sim.compile.programs")
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
}

// Circuit returns the netlist the program was compiled from.
func (p *Program) Circuit() *logic.Circuit { return p.c }

// NumInstrs returns the instruction count (one per evaluated net).
func (p *Program) NumInstrs() int { return len(p.code) }

// lower maps a gate's operator (see logic.Op) and its fanin count —
// 0, 1, 2, or 3 for more than two — to its opcode: an empty fold is
// the connective's identity (inverted for NAND, NOR and XNOR), a
// one-operand fold a buffer or inverter.
var lower = [8][4]opcode{
	logic.OpAnd:               {opConst1, opBuf, opAnd2, opAndN},
	logic.OpAnd | logic.OpInv: {opConst0, opNot, opNand2, opNandN},
	logic.OpOr:                {opConst0, opBuf, opOr2, opOrN},
	logic.OpOr | logic.OpInv:  {opConst1, opNot, opNor2, opNorN},
	logic.OpXor:               {opConst0, opBuf, opXor2, opXorN},
	logic.OpXor | logic.OpInv: {opConst1, opNot, opXnor2, opXnorN},
}

// Compile lowers the levelized netlist into a Program, one instruction
// per net of c.Order. The circuit must be finalized.
func Compile(c *logic.Circuit) *Program {
	// Span rather than bare timer: End observes the same sim.compile
	// timer and additionally records a trace event, so compiles show up
	// in job span trees.
	span := telemetry.Default().StartSpan("sim.compile")
	nfan := 0
	for _, id := range c.Order {
		if k := len(c.Gates[id].Fanin); k > 2 {
			nfan += k
		}
	}
	p := &Program{
		c:      c,
		code:   make([]instr, len(c.Order)),
		fanins: make([]int32, 0, nfan),
	}
	for i, id := range c.Order {
		g := &c.Gates[id]
		in := instr{op: lower[g.Type.Op()][min(len(g.Fanin), 3)], out: int32(id)}
		switch len(g.Fanin) {
		case 0:
		case 1:
			in.a = int32(g.Fanin[0])
		case 2:
			in.a, in.b = int32(g.Fanin[0]), int32(g.Fanin[1])
		default:
			in.a, in.b = int32(len(p.fanins)), int32(len(g.Fanin))
			for _, f := range g.Fanin {
				p.fanins = append(p.fanins, int32(f))
			}
		}
		p.code[i] = in
	}
	cCompilePrograms.Inc()
	span.SetAttr("gates", fmt.Sprint(len(c.Order)))
	span.End()
	return p
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
