// Package logic provides the gate-level netlist model that underlies the
// whole toolkit: logic value algebras (two-valued, ternary and the
// five-valued D-calculus used by the D-algorithm), gate types, circuits,
// levelization, and the ISCAS-85 ".bench" interchange format.
//
// The model follows the abstraction used throughout Williams & Parker,
// "Design for Testability — A Survey": a network of single-output logic
// gates plus clocked storage elements, with faults expressed as single
// stuck-at conditions on gate pins.
package logic

import "fmt"

// V is a logic value in the five-valued D-calculus of Roth's D-algorithm.
//
// Zero and One are the ordinary Boolean values. X is unknown/unassigned.
// D represents "1 in the good machine, 0 in the faulty machine";
// Dbar is its complement. Ternary simulation uses only {Zero, One, X}.
type V uint8

const (
	Zero V = iota // logic 0 in both good and faulty machine
	One           // logic 1 in both good and faulty machine
	X             // unknown / unassigned
	D             // good 1 / faulty 0
	Dbar          // good 0 / faulty 1
)

// String renders the value in the conventional D-calculus notation.
func (v V) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	case D:
		return "D"
	case Dbar:
		return "D'"
	}
	return fmt.Sprintf("V(%d)", uint8(v))
}

// FromBool converts a Go bool to a logic value.
func FromBool(b bool) V {
	if b {
		return One
	}
	return Zero
}

// IsError reports whether v carries a fault effect (D or D').
func (v V) IsError() bool { return v == D || v == Dbar }

// Good returns the value seen by the fault-free machine.
func (v V) Good() V {
	switch v {
	case D:
		return One
	case Dbar:
		return Zero
	}
	return v
}

// Faulty returns the value seen by the faulty machine.
func (v V) Faulty() V {
	switch v {
	case D:
		return Zero
	case Dbar:
		return One
	}
	return v
}

// Not returns the five-valued complement.
func (v V) Not() V {
	switch v {
	case Zero:
		return One
	case One:
		return Zero
	case D:
		return Dbar
	case Dbar:
		return D
	}
	return X
}

// and5 is the five-valued conjunction. It is exact for the D-calculus:
// it composes the good-machine and faulty-machine values independently.
func and5(a, b V) V {
	if a == Zero || b == Zero {
		return Zero
	}
	// Neither is Zero. Handle X pessimistically.
	ga, fa := a.Good(), a.Faulty()
	gb, fb := b.Good(), b.Faulty()
	if a == X || b == X {
		// Result is Zero only if some operand is Zero in both machines,
		// which we excluded; X dominates otherwise unless the other side
		// pins the result... it cannot, for AND with no Zero operand.
		return X
	}
	g := ga == One && gb == One
	f := fa == One && fb == One
	return compose(g, f)
}

// or5 is the five-valued disjunction.
func or5(a, b V) V {
	if a == One || b == One {
		return One
	}
	if a == X || b == X {
		return X
	}
	ga, fa := a.Good(), a.Faulty()
	gb, fb := b.Good(), b.Faulty()
	g := ga == One || gb == One
	f := fa == One || fb == One
	return compose(g, f)
}

// xor5 is the five-valued exclusive-or.
func xor5(a, b V) V {
	if a == X || b == X {
		return X
	}
	g := (a.Good() == One) != (b.Good() == One)
	f := (a.Faulty() == One) != (b.Faulty() == One)
	return compose(g, f)
}

// compose builds a five-valued value from separate good/faulty bits.
func compose(good, faulty bool) V {
	switch {
	case good && faulty:
		return One
	case !good && !faulty:
		return Zero
	case good && !faulty:
		return D
	default:
		return Dbar
	}
}

// AndV folds and5 over its operands; the empty conjunction is One.
func AndV(vs ...V) V {
	r := One
	for _, v := range vs {
		r = and5(r, v)
	}
	return r
}

// OrV folds or5 over its operands; the empty disjunction is Zero.
func OrV(vs ...V) V {
	r := Zero
	for _, v := range vs {
		r = or5(r, v)
	}
	return r
}

// XorV folds xor5 over its operands; the empty exclusive-or is Zero.
func XorV(vs ...V) V {
	r := Zero
	for _, v := range vs {
		r = xor5(r, v)
	}
	return r
}

// Op is a gate's operator: a connective folded left to right over the
// operands from its identity, then an optional output inversion. Every
// combinational gate is one: BUF and NOT are one-operand ANDs, CONST1
// an empty AND, CONST0 an empty OR. GateType.Op maps a gate to its Op;
// the five-valued fold below and the fault kernel's 64-pattern word
// fold both evaluate gates from it.
type Op uint8

const (
	OpAnd Op = iota // connective and5, identity One
	OpOr            // connective or5, identity Zero
	OpXor           // connective xor5, identity Zero

	OpInv Op = 4 // flag: complement the folded result
)

// Conn returns the operator's connective, without its inversion.
func (o Op) Conn() Op { return o &^ OpInv }

// The five-valued fold tables, indexed by Op and value and each padded
// to eight entries so that masked indices need no bounds check:
// fold5[o][r][v] is r∘v for o's connective, built from and5, or5 and
// xor5, so a table fold equals AndV, OrV or XorV operand for operand;
// start5[o] is the connective's identity and out5[o][r] the folded
// result r after o's inversion. Entries for values past Dbar are
// never read.
var (
	fold5  [8][8][8]V
	start5 [8]V
	out5   [8][8]V
)

func init() {
	conn := [...]func(a, b V) V{OpAnd: and5, OpOr: or5, OpXor: xor5}
	for o := Op(0); o < 8; o++ {
		c := o.Conn()
		if c > OpXor {
			continue
		}
		start5[o] = [...]V{OpAnd: One, OpOr: Zero, OpXor: Zero}[c]
		for r := Zero; r <= Dbar; r++ {
			for v := Zero; v <= Dbar; v++ {
				fold5[o][r][v] = conn[c](r, v)
			}
			out5[o][r] = r
			if o&OpInv != 0 {
				out5[o][r] = r.Not()
			}
		}
	}
}

// Start returns the value a fold under o starts from: its connective's
// identity.
func (o Op) Start() V { return start5[o&7] }

// Fold returns r∘v under o's connective. The five-valued connectives
// are not associative over X and the error values (AndV(X, D, Dbar) is
// X, AndV(D, Dbar, X) is Zero), so a gate's operands must be folded in
// fanin order, one at a time.
func (o Op) Fold(r, v V) V { return fold5[o&7][r&7][v&7] }

// Out applies o's output inversion to a folded result r.
func (o Op) Out(r V) V { return out5[o&7][r&7] }
