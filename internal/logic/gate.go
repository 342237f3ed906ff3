package logic

import "fmt"

// GateType enumerates the primitive elements a Circuit may contain.
//
// Every element drives exactly one net, so nets are identified with the
// index of their driver. Input elements model primary inputs, DFF models
// an edge-triggered D flip-flop (the generic storage element before any
// DFT discipline is imposed), and the combinational types are the usual
// single-output gates.
type GateType uint8

const (
	Input  GateType = iota // primary input (no fanin)
	Buf                    // buffer, 1 fanin
	Not                    // inverter, 1 fanin
	And                    // n-input AND
	Nand                   // n-input NAND
	Or                     // n-input OR
	Nor                    // n-input NOR
	Xor                    // n-input XOR (odd parity)
	Xnor                   // n-input XNOR (even parity)
	Const0                 // constant 0, no fanin
	Const1                 // constant 1, no fanin
	DFF                    // D flip-flop, 1 fanin (the D input)
)

var gateNames = [...]string{
	Input: "INPUT", Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
	Const0: "CONST0", Const1: "CONST1", DFF: "DFF",
}

// String returns the conventional upper-case gate mnemonic.
func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// IsCombinational reports whether the type computes a pure function of
// its present inputs (i.e., is neither an Input nor a DFF).
func (t GateType) IsCombinational() bool {
	switch t {
	case Input, DFF:
		return false
	}
	return true
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 1 // n-input gates accept 1..n; 1-input AND degenerates to BUF
	}
}

// MaxFanin returns the maximum legal fanin count for the type, or -1 for
// unbounded.
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return -1
	}
}

// Inverting reports whether the gate complements the underlying
// monotone function (NAND, NOR, NOT, XNOR).
func (t GateType) Inverting() bool {
	switch t {
	case Not, Nand, Nor, Xnor:
		return true
	}
	return false
}

// ControllingValue returns the value which, applied to any single input,
// determines the gate output regardless of the other inputs, and whether
// such a value exists. AND/NAND are controlled by 0; OR/NOR by 1.
func (t GateType) ControllingValue() (V, bool) {
	switch t {
	case And, Nand:
		return Zero, true
	case Or, Nor:
		return One, true
	}
	return X, false
}

// ControlledResponse returns the gate output when a controlling value is
// present on some input. Only meaningful when ControllingValue reports ok.
func (t GateType) ControlledResponse() V {
	switch t {
	case And:
		return Zero
	case Nand:
		return One
	case Or:
		return One
	case Nor:
		return Zero
	}
	return X
}

// Op returns the operator that evaluates the type: NAND is an inverted
// AND, BUF a one-operand AND, CONST0 an empty OR and so on. Source
// elements (Input, DFF) are never evaluated and map to OpAnd.
func (t GateType) Op() Op {
	switch t {
	case Nand, Not:
		return OpAnd | OpInv
	case Or, Const0:
		return OpOr
	case Nor:
		return OpOr | OpInv
	case Xor:
		return OpXor
	case Xnor:
		return OpXor | OpInv
	}
	return OpAnd
}

// Eval computes the gate function over five-valued operands. Input and
// DFF types must not be evaluated through this function.
func (t GateType) Eval(in []V) V {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return in[0].Not()
	case And:
		return And5(in)
	case Nand:
		return And5(in).Not()
	case Or:
		return Or5(in)
	case Nor:
		return Or5(in).Not()
	case Xor:
		return Xor5(in)
	case Xnor:
		return Xor5(in).Not()
	case Const0:
		return Zero
	case Const1:
		return One
	}
	panic("logic: Eval on non-combinational gate type " + t.String())
}

// And5, Or5 and Xor5 are slice forms of the five-valued connectives.
func And5(in []V) V { return AndV(in...) }

// Or5 is the slice form of the five-valued disjunction.
func Or5(in []V) V { return OrV(in...) }

// Xor5 is the slice form of the five-valued exclusive-or.
func Xor5(in []V) V { return XorV(in...) }

// EvalBool computes the gate function over plain Boolean operands. It is
// the fast path used by the two-valued simulators.
func (t GateType) EvalBool(in []bool) bool {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		for _, b := range in {
			if !b {
				return false
			}
		}
		return true
	case Nand:
		for _, b := range in {
			if !b {
				return true
			}
		}
		return false
	case Or:
		for _, b := range in {
			if b {
				return true
			}
		}
		return false
	case Nor:
		for _, b := range in {
			if b {
				return false
			}
		}
		return true
	case Xor:
		p := false
		for _, b := range in {
			p = p != b
		}
		return p
	case Xnor:
		p := true
		for _, b := range in {
			p = p != b
		}
		return p
	case Const0:
		return false
	case Const1:
		return true
	}
	panic("logic: EvalBool on non-combinational gate type " + t.String())
}

// EvalWord computes the gate function bit-parallel over 64-pattern words.
// Each bit position is an independent pattern; this is the engine behind
// parallel-pattern simulation.
func (t GateType) EvalWord(in []uint64) uint64 {
	switch t {
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And:
		r := ^uint64(0)
		for _, w := range in {
			r &= w
		}
		return r
	case Nand:
		r := ^uint64(0)
		for _, w := range in {
			r &= w
		}
		return ^r
	case Or:
		r := uint64(0)
		for _, w := range in {
			r |= w
		}
		return r
	case Nor:
		r := uint64(0)
		for _, w := range in {
			r |= w
		}
		return ^r
	case Xor:
		r := uint64(0)
		for _, w := range in {
			r ^= w
		}
		return r
	case Xnor:
		r := uint64(0)
		for _, w := range in {
			r ^= w
		}
		return ^r
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	}
	panic("logic: EvalWord on non-combinational gate type " + t.String())
}

// Gate is one element of a Circuit. The element drives the net whose ID
// equals the gate's index in Circuit.Gates; Fanin lists the net IDs it
// reads. Name is optional and preserved by the .bench reader/writer.
type Gate struct {
	Type  GateType
	Fanin []int
	Name  string
}
