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
