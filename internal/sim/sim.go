// Package sim provides true-value simulation of logic circuits: scalar
// Boolean simulation, ternary (0/1/X) simulation for initialization
// analysis, 64-way bit-parallel pattern simulation, and multi-cycle
// sequential simulation of circuits containing flip-flops.
//
// These simulators are the "good machine" engines on which fault
// simulation (package fault) and every self-test technique in the paper
// are built.
package sim

import (
	"fmt"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Levelized-evaluation counters on the Default registry. Handles are
// cached at package level (Registry.Reset zeroes in place, so they
// never detach) and bumped once per full pass, not per gate.
var (
	cLevelEvals   = telemetry.Default().Counter("sim.levelized.evals")
	cTernaryEvals = telemetry.Default().Counter("sim.levelized.ternary_evals")
	cWordEvals    = telemetry.Default().Counter("sim.levelized.word_evals")
)

// Eval runs a two-valued combinational simulation. pi maps each primary
// input (in Circuit.PIs order) to a value; state maps each DFF (in
// Circuit.DFFs order) to its present output. The returned slice holds
// the value of every net. For purely combinational circuits state may be
// nil.
func Eval(c *logic.Circuit, pi []bool, state []bool) []bool {
	vals := make([]bool, len(c.Gates))
	EvalInto(c, pi, state, vals)
	return vals
}

// EvalInto is Eval writing into caller-provided storage to avoid
// allocation in inner loops. It runs the circuit's cached compiled
// program.
func EvalInto(c *logic.Circuit, pi []bool, state []bool, vals []bool) {
	CompiledFor(c).EvalInto(pi, state, vals)
}

// EvalInterpInto is the interpreted scalar kernel: a levelized walk
// gathering each gate's fanins into scratch and dispatching through
// GateType.EvalBool. It is the reference implementation the compiled
// kernel is checked against; a nil scratch is allocated here.
func EvalInterpInto(c *logic.Circuit, pi []bool, state []bool, vals []bool, scratch []bool) {
	for i, id := range c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range c.DFFs {
		vals[id] = state[i]
	}
	if scratch == nil {
		scratch = make([]bool, c.MaxFanin())
	}
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, f := range g.Fanin {
			in[i] = vals[f]
		}
		vals[id] = g.Type.EvalBool(in)
	}
	cLevelEvals.Add(int64(len(c.Order)))
}

// Outputs extracts the primary output values from a full net valuation.
func Outputs(c *logic.Circuit, vals []bool) []bool {
	out := make([]bool, len(c.POs))
	for i, id := range c.POs {
		out[i] = vals[id]
	}
	return out
}

// NextState extracts the next-state values (DFF D inputs) from a full
// net valuation.
func NextState(c *logic.Circuit, vals []bool) []bool {
	ns := make([]bool, len(c.DFFs))
	for i, id := range c.DFFs {
		ns[i] = vals[c.Gates[id].Fanin[0]]
	}
	return ns
}

// EvalTernary runs a three-valued (0/1/X) combinational simulation,
// the classical tool for reasoning about uninitialized storage. Values
// other than logic.Zero/One/X in the inputs are rejected.
func EvalTernary(c *logic.Circuit, pi []logic.V, state []logic.V) []logic.V {
	vals := make([]logic.V, len(c.Gates))
	EvalTernaryInto(c, pi, state, vals, nil)
	return vals
}

// EvalTernaryInto is EvalTernary into caller-provided storage.
// scratch, if non-nil, must have capacity for the widest gate fanin;
// pass nil to let the function allocate it.
func EvalTernaryInto(c *logic.Circuit, pi, state, vals []logic.V, scratch []logic.V) {
	if len(pi) != len(c.PIs) {
		panic(fmt.Sprintf("sim: got %d input values for %d primary inputs", len(pi), len(c.PIs)))
	}
	if len(state) != len(c.DFFs) {
		panic(fmt.Sprintf("sim: got %d state values for %d flip-flops", len(state), len(c.DFFs)))
	}
	for i := range vals {
		vals[i] = logic.X
	}
	check := func(v logic.V) logic.V {
		if v.IsError() {
			panic("sim: D-values are not valid ternary simulation inputs")
		}
		return v
	}
	for i, id := range c.PIs {
		vals[id] = check(pi[i])
	}
	for i, id := range c.DFFs {
		vals[id] = check(state[i])
	}
	if scratch == nil {
		scratch = make([]logic.V, c.MaxFanin())
	}
	for _, id := range c.Order {
		g := &c.Gates[id]
		args := scratch[:len(g.Fanin)]
		for i, f := range g.Fanin {
			args[i] = vals[f]
		}
		vals[id] = g.Type.Eval(args)
	}
	cTernaryEvals.Add(int64(len(c.Order)))
}

// Words is a bit-parallel valuation: Words[n] packs the value of net n
// for up to 64 independent patterns, one per bit position.
type Words []uint64

// EvalWords runs 64-way bit-parallel combinational simulation. pi and
// state carry one word per primary input / flip-flop.
func EvalWords(c *logic.Circuit, pi []uint64, state []uint64) Words {
	vals := make(Words, len(c.Gates))
	EvalWordsInto(c, pi, state, vals)
	return vals
}

// EvalWordsInto is EvalWords into caller-provided storage, through the
// circuit's cached compiled program.
func EvalWordsInto(c *logic.Circuit, pi, state []uint64, vals Words) {
	CompiledFor(c).EvalWordsInto(pi, state, vals)
}

// EvalWordsInterpInto is the interpreted 64-way kernel, the reference
// implementation the compiled kernel is checked against.
func EvalWordsInterpInto(c *logic.Circuit, pi, state []uint64, vals Words, scratch []uint64) {
	if len(pi) != len(c.PIs) {
		panic(fmt.Sprintf("sim: got %d input words for %d primary inputs", len(pi), len(c.PIs)))
	}
	if len(state) != len(c.DFFs) {
		panic(fmt.Sprintf("sim: got %d state words for %d flip-flops", len(state), len(c.DFFs)))
	}
	for i, id := range c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range c.DFFs {
		vals[id] = state[i]
	}
	if scratch == nil {
		scratch = make([]uint64, c.MaxFanin())
	}
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, f := range g.Fanin {
			in[i] = vals[f]
		}
		vals[id] = g.Type.EvalWord(in)
	}
	cWordEvals.Add(int64(len(c.Order)))
}

// PackPatterns packs up to 64 scalar patterns (each len(c.PIs) long)
// into one word per primary input: bit k of word i is pattern k's value
// for input i.
func PackPatterns(c *logic.Circuit, patterns [][]bool) []uint64 {
	words := make([]uint64, len(c.PIs))
	PackPatternsInto(patterns, words)
	return words
}

// PackPatternsInto packs up to 64 patterns into caller-provided words
// (one word per input position, zeroed first): bit k of word i is
// pattern k's value for input i. It returns the number of patterns
// packed, so grading loops can reuse one word slice per block instead
// of allocating.
func PackPatternsInto(patterns [][]bool, words []uint64) int {
	if len(patterns) > 64 {
		panic("sim: PackPatternsInto accepts at most 64 patterns")
	}
	for i := range words {
		words[i] = 0
	}
	for k, p := range patterns {
		if len(p) != len(words) {
			panic(fmt.Sprintf("sim: pattern %d has %d values for %d inputs", k, len(p), len(words)))
		}
		for i, b := range p {
			if b {
				words[i] |= 1 << uint(k)
			}
		}
	}
	return len(patterns)
}

// exhaustMasks are the packed values of the six low enumeration
// variables within one 64-pattern block: variable b toggles with
// period 2^b across pattern indices, so its word is a fixed mask.
var exhaustMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ExhaustiveBlock fills words with one 64-pattern block of the
// exhaustive enumeration over len(free) variables, starting at pattern
// index base (which must be 64-aligned): pattern base+p assigns bit b
// of (base+p) to words[free[b]]'s bit p, matching the pattern order of
// a scalar count from 0 to 2^n-1. Only the free positions of words are
// written. It returns the number of patterns in the block (64, or the
// tail remainder; 0 when base is past the end).
func ExhaustiveBlock(words []uint64, free []int, base uint64) int {
	n := len(free)
	if n >= 64 {
		panic("sim: ExhaustiveBlock supports at most 63 variables")
	}
	if base%64 != 0 {
		panic("sim: ExhaustiveBlock base must be 64-aligned")
	}
	total := uint64(1) << uint(n)
	if base >= total {
		return 0
	}
	k := 64
	if rem := total - base; rem < 64 {
		k = int(rem)
	}
	mask := ^uint64(0)
	if k < 64 {
		mask = 1<<uint(k) - 1
	}
	for b, pos := range free {
		var w uint64
		if b < 6 {
			w = exhaustMasks[b]
		} else if base>>uint(b)&1 == 1 {
			w = ^uint64(0)
		}
		words[pos] = w & mask
	}
	return k
}
