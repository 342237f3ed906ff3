package testability

import (
	"math"

	"dft/internal/fault"
	"dft/internal/logic"
)

// SignalProbabilities propagates per-net probabilities of logic 1
// under the independence approximation of Parker & McCluskey ([45] in
// the paper): AND multiplies, OR complements-multiplies, XOR combines
// pairwise. piProb gives the 1-probability of each primary input (nil
// means 0.5 everywhere); flip-flops are treated as equiprobable.
//
// The approximation ignores reconvergent-fanout correlation — exactly
// the tradeoff the 1975 paper made — and is the basis for random-
// pattern testability estimation.
func SignalProbabilities(c *logic.Circuit, piProb []float64) []float64 {
	p := make([]float64, c.NumNets())
	for i, pi := range c.PIs {
		if piProb == nil {
			p[pi] = 0.5
		} else {
			p[pi] = piProb[i]
		}
	}
	for _, d := range c.DFFs {
		p[d] = 0.5
	}
	propagateProbabilities(c, p)
	return p
}

// Observabilities estimates, per net, the probability that a value
// change on the net propagates to some primary output under random
// patterns (a STAFAN-style measure built on the signal probabilities):
// O(PO) = 1; through an AND-type gate the change must find every other
// input non-controlling; through XOR it always propagates; a stem's
// observability is approximated by its best branch.
func Observabilities(c *logic.Circuit, p []float64) []float64 {
	obs := make([]float64, c.NumNets())
	for _, po := range c.POs {
		obs[po] = 1
	}
	propagateObservabilities(c, p, obs)
	return obs
}

// propagateProbabilities fills in the 1-probability of every
// combinational net in topological order from the source
// probabilities already in p: AND multiplies, OR complements-
// multiplies, XOR combines pairwise.
func propagateProbabilities(c *logic.Circuit, p []float64) {
	for _, id := range c.Order {
		g := &c.Gates[id]
		switch g.Type {
		case logic.Const0:
			p[id] = 0
		case logic.Const1:
			p[id] = 1
		case logic.Buf:
			p[id] = p[g.Fanin[0]]
		case logic.Not:
			p[id] = 1 - p[g.Fanin[0]]
		case logic.And, logic.Nand:
			prod := 1.0
			for _, src := range g.Fanin {
				prod *= p[src]
			}
			if g.Type == logic.Nand {
				prod = 1 - prod
			}
			p[id] = prod
		case logic.Or, logic.Nor:
			prod := 1.0
			for _, src := range g.Fanin {
				prod *= 1 - p[src]
			}
			if g.Type == logic.Nor {
				p[id] = prod
			} else {
				p[id] = 1 - prod
			}
		case logic.Xor, logic.Xnor:
			odd := 0.0
			for i, src := range g.Fanin {
				if i == 0 {
					odd = p[src]
					continue
				}
				odd = odd*(1-p[src]) + (1-odd)*p[src]
			}
			if g.Type == logic.Xnor {
				odd = 1 - odd
			}
			p[id] = odd
		}
	}
}

// propagateObservabilities walks nets in reverse topological order
// from the observation points already seeded in obs, keeping each
// net's best propagation path: through an AND-type gate the change
// must find every other input non-controlling, through XOR it always
// propagates. Flip-flops are not in c.Order, so a D input is
// observable only when it is seeded itself.
func propagateObservabilities(c *logic.Circuit, p, obs []float64) {
	for i := len(c.Order) - 1; i >= 0; i-- {
		id := c.Order[i]
		g := &c.Gates[id]
		for pin, src := range g.Fanin {
			through := obs[id]
			switch g.Type {
			case logic.And, logic.Nand:
				for q, other := range g.Fanin {
					if q != pin {
						through *= p[other]
					}
				}
			case logic.Or, logic.Nor:
				for q, other := range g.Fanin {
					if q != pin {
						through *= 1 - p[other]
					}
				}
			}
			if through > obs[src] {
				obs[src] = through
			}
		}
	}
}

// DetectProbability estimates the single-random-pattern detection
// probability of a stuck-at fault: P(site at ¬SA) × P(propagation).
func DetectProbability(c *logic.Circuit, p, obs []float64, f fault.Fault) float64 {
	site := f.Site(c)
	activate := p[site]
	if f.SA == logic.One {
		activate = 1 - p[site]
	}
	o := obs[site]
	if f.Pin != fault.Stem {
		// A branch fault propagates only through its own gate.
		g := &c.Gates[f.Gate]
		o = obs[f.Gate]
		switch g.Type {
		case logic.And, logic.Nand:
			for q, other := range g.Fanin {
				if q != f.Pin {
					o *= p[other]
				}
			}
		case logic.Or, logic.Nor:
			for q, other := range g.Fanin {
				if q != f.Pin {
					o *= 1 - p[other]
				}
			}
		}
	}
	return activate * o
}

// ExpectedPatterns returns the expected random-pattern count to detect
// the hardest *testable* fault in the list (1/min positive detection
// probability) — the quantity that explodes for the Fig. 22 PLA.
// Faults with estimated probability zero (e.g. on unobservable logic)
// are excluded; if every fault is excluded the result is +Inf.
func ExpectedPatterns(c *logic.Circuit, faults []fault.Fault, piProb []float64) float64 {
	p := SignalProbabilities(c, piProb)
	obs := Observabilities(c, p)
	best := 1.0 // smallest positive detection probability seen
	found := false
	for _, f := range faults {
		dp := DetectProbability(c, p, obs, f)
		if dp > 0 && (!found || dp < best) {
			best = dp
			found = true
		}
	}
	if !found {
		return math.Inf(1)
	}
	return 1 / best
}

// DeriveWeights proposes per-input 1-probabilities for weighted random
// testing (Schnurmann et al. [95]): each gate back-propagates the
// input probability that would make its own output equiprobable, and
// every primary input averages the demands of its fanout cone. One
// pass captures the dominant effect (deep AND trees pull weights up,
// OR trees pull them down).
func DeriveWeights(c *logic.Circuit) []float64 {
	demand := make([]float64, c.NumNets())
	readers := make([]float64, c.NumNets())
	demandOf := func(id int) float64 {
		if readers[id] == 0 {
			return 0.5 // no reader demanded anything: target equiprobable
		}
		return demand[id]
	}
	// Reverse topological: convert output demand into input demand,
	// averaging when a net feeds several readers.
	for i := len(c.Order) - 1; i >= 0; i-- {
		id := c.Order[i]
		g := &c.Gates[id]
		n := float64(len(g.Fanin))
		d := demandOf(id)
		var want float64
		switch g.Type {
		case logic.And:
			want = math.Pow(d, 1/n)
		case logic.Nand:
			want = math.Pow(1-d, 1/n)
		case logic.Or:
			want = 1 - math.Pow(1-d, 1/n)
		case logic.Nor:
			want = 1 - math.Pow(d, 1/n)
		case logic.Not:
			want = 1 - d
		case logic.Buf:
			want = d
		default:
			want = 0.5
		}
		for _, src := range g.Fanin {
			demand[src] = (demand[src]*readers[src] + want) / (readers[src] + 1)
			readers[src]++
		}
	}
	out := make([]float64, len(c.PIs))
	for i, pi := range c.PIs {
		w := demandOf(pi)
		if w < 0.05 {
			w = 0.05
		}
		if w > 0.95 {
			w = 0.95
		}
		out[i] = w
	}
	return out
}
