// Package bridge implements the bridging-fault model the paper
// contrasts with stuck-at coverage (§I.A, citing Mei [43]): two nets
// shorted together, resolving as wired-AND or wired-OR. The paper's
// claim — "historically, bridging faults have been detected by having
// a high level (in the high 90 percent) single stuck-at fault
// coverage" — is directly measurable here: build a bridging universe,
// grade a 100%-stuck-at test set against it.
package bridge

import (
	"fmt"
	"math/rand"
	"sort"

	"dft/internal/logic"
	"dft/internal/sim"
)

// Kind is the resolution function of a short.
type Kind uint8

const (
	WiredAND Kind = iota // the short resolves to a AND b
	WiredOR              // the short resolves to a OR b
)

// String names the kind.
func (k Kind) String() string {
	if k == WiredAND {
		return "wired-AND"
	}
	return "wired-OR"
}

// Fault is a bridging fault between two distinct nets.
type Fault struct {
	A, B int
	Kind Kind
}

// Name renders the fault with net names.
func (f Fault) Name(c *logic.Circuit) string {
	return fmt.Sprintf("bridge(%s,%s) %s", c.NameOf(f.A), c.NameOf(f.B), f.Kind)
}

// Feedback reports whether the bridge creates a feedback loop (one net
// is in the transitive fanout of the other) — the case that can turn
// combinational logic sequential, which the paper flags for CMOS and
// which this combinational model must exclude.
func Feedback(c *logic.Circuit, a, b int) bool {
	return inCone(c, a, b) || inCone(c, b, a)
}

// inCone reports whether to is in the transitive fanout of from.
func inCone(c *logic.Circuit, from, to int) bool {
	seen := make([]bool, c.NumNets())
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, r := range c.Fanout[n] {
			if c.Gates[r].Type.IsCombinational() {
				stack = append(stack, r)
			}
		}
	}
	return false
}

// Universe enumerates non-feedback bridging faults between
// level-adjacent nets (|level difference| ≤ window), both polarities.
// Physical bridges join nearby wires; level adjacency is the standard
// topological proxy. The list is capped at limit pairs chosen
// deterministically from rng.
func Universe(c *logic.Circuit, window, limit int, rng *rand.Rand) []Fault {
	type pair struct{ a, b int }
	var candidates []pair
	byLevel := map[int][]int{}
	for n := 0; n < c.NumNets(); n++ {
		byLevel[c.Level[n]] = append(byLevel[c.Level[n]], n)
	}
	levels := make([]int, 0, len(byLevel))
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	for _, l := range levels {
		var pool []int
		for dl := 0; dl <= window; dl++ {
			pool = append(pool, byLevel[l+dl]...)
		}
		for i, a := range byLevel[l] {
			for _, b := range pool {
				if b <= a && c.Level[b] == l {
					continue // avoid double-counting same-level pairs
				}
				if a == b {
					continue
				}
				candidates = append(candidates, pair{a, b})
			}
			_ = i
		}
	}
	// Deterministic subsample.
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	var out []Fault
	for _, p := range candidates {
		if len(out) >= 2*limit {
			break
		}
		if Feedback(c, p.a, p.b) {
			continue
		}
		out = append(out, Fault{p.a, p.b, WiredAND}, Fault{p.a, p.b, WiredOR})
	}
	return out
}

// EvalBridged computes all net values with the bridge present: after
// the normal levelized pass settles both nets' driven values, the
// shorted value replaces them for all their readers and for output
// observation. Non-feedback bridges converge in one extra pass.
func EvalBridged(c *logic.Circuit, pi []bool, f Fault) []bool {
	vals := make([]bool, c.NumNets())
	for i, id := range c.PIs {
		vals[id] = pi[i]
	}
	scratch := make([]bool, c.MaxFanin())
	resolve := func(a, b bool) bool {
		if f.Kind == WiredAND {
			return a && b
		}
		return a || b
	}
	// Two passes: drivers settle, then the bridged value propagates.
	// For non-feedback bridges the second pass reaches the fixpoint.
	for pass := 0; pass < 2; pass++ {
		for _, id := range c.Order {
			g := &c.Gates[id]
			in := scratch[:len(g.Fanin)]
			for i, src := range g.Fanin {
				v := vals[src]
				if src == f.A || src == f.B {
					v = resolve(vals[f.A], vals[f.B])
				}
				in[i] = v
			}
			vals[id] = g.Type.EvalBool(in)
		}
	}
	// Observation: bridged nets read as the resolved value.
	shared := resolve(vals[f.A], vals[f.B])
	vals[f.A] = shared
	vals[f.B] = shared
	return vals
}

// Detects reports whether the pattern distinguishes the bridged
// circuit from the good one at the primary outputs.
func Detects(c *logic.Circuit, pi []bool, f Fault) bool {
	good := sim.Eval(c, pi, make([]bool, len(c.DFFs)))
	bad := EvalBridged(c, pi, f)
	for _, po := range c.POs {
		if good[po] != bad[po] {
			return true
		}
	}
	return false
}

// Result reports a bridging-coverage measurement.
type Result struct {
	Total    int
	Detected int
}

// Coverage returns detected/total.
func (r Result) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Grade measures how many bridging faults the pattern set detects.
func Grade(c *logic.Circuit, faults []Fault, patterns [][]bool) Result {
	res := Result{Total: len(faults)}
	for _, f := range faults {
		for _, p := range patterns {
			if Detects(c, p, f) {
				res.Detected++
				break
			}
		}
	}
	return res
}
