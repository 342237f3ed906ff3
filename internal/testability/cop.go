package testability

import (
	"sort"

	"dft/internal/fault"
	"dft/internal/logic"
)

// COP holds view-aware Parker-McCluskey probability metrics: P is the
// per-net probability of logic 1 under random patterns on the view
// inputs, Obs the per-net probability that a value change propagates
// to some view output. Unlike SignalProbabilities/Observabilities,
// which assume the primary view with equiprobable flip-flops, ViewCOP
// mirrors the fault engine's view semantics exactly: unlisted source
// elements are held at 0 (probability 0), listed ones are equiprobable,
// and observability is seeded from the view outputs — which may be
// internal nets (scanned D inputs, test-point taps), not just POs.
type COP struct {
	P   []float64
	Obs []float64
}

// ViewCOP computes COP signal probabilities and observabilities under
// an explicit view, the basis for the advisor's predicted-gain scoring.
func ViewCOP(c *logic.Circuit, inputs, outputs []int) *COP {
	n := c.NumNets()
	cop := &COP{P: make([]float64, n), Obs: make([]float64, n)}
	for _, in := range inputs {
		cop.P[in] = 0.5
	}
	// Unlisted PIs and DFFs keep p=0: the engine holds them at 0.
	propagateProbabilities(c, cop.P)
	for _, o := range outputs {
		cop.Obs[o] = 1
	}
	propagateObservabilities(c, cop.P, cop.Obs)
	return cop
}

// Detect estimates the single-pattern detection probability of a
// stuck-at fault under the view the COP was computed for. It is
// DetectProbability over view-aware probabilities.
func (cop *COP) Detect(c *logic.Circuit, f fault.Fault) float64 {
	return DetectProbability(c, cop.P, cop.Obs, f)
}

// ReconvergentStems returns, in ascending net order, every fanout stem
// whose branches reconverge — two distinct immediate fanout branches
// reach a common gate. Reconvergent regions are where the independence
// approximation behind COP breaks down and where random-pattern
// resistance concentrates, so the advisor boosts them as test-point
// candidates.
func ReconvergentStems(c *logic.Circuit) []int {
	n := c.NumNets()
	// readers[net] = gates reading the net, from the fanout counts.
	readers := make([][]int, n)
	for id := range c.Gates {
		for _, src := range c.Gates[id].Fanin {
			readers[src] = append(readers[src], id)
		}
	}
	var stems []int
	mark := make([]uint64, n)
	for s := 0; s < n; s++ {
		br := readers[s]
		if len(br) < 2 {
			continue
		}
		for i := range mark {
			mark[i] = 0
		}
		// Propagate a bitmask of originating branches forward to a fixed
		// point; a net holding two distinct branch bits proves the
		// branches reconverge there. Branches beyond 64 share the last
		// bit (conservative: may miss reconvergence among the grouped
		// branches, never reports a false one between them alone).
		var stack []int
		for bi, r := range br {
			bit := uint64(1) << uint(min2(bi, 63))
			if mark[r]|bit != mark[r] {
				mark[r] |= bit
				stack = append(stack, r)
			}
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m := mark[id]
			for _, r := range readers[id] {
				if mark[r]|m != mark[r] {
					mark[r] |= m
					stack = append(stack, r)
				}
			}
		}
		for _, m := range mark {
			if m&(m-1) != 0 { // two distinct branch bits met
				stems = append(stems, s)
				break
			}
		}
	}
	sort.Ints(stems)
	return stems
}

// ReportSection renders the per-net SCOAP and COP metrics as the
// `testability` section of a run report: the SCOAP summary, the top-k
// hardest nets annotated with their COP probabilities, the hardest
// remaining single-pattern detection probability, and the reconvergent
// stem count. dftc info -json and advise reports share it, so the
// advisor's decisions are auditable from the report alone.
func ReportSection(c *logic.Circuit, inputs, outputs []int, faults []fault.Fault, top int) map[string]any {
	m := Analyze(c)
	cop := ViewCOP(c, inputs, outputs)
	sum := m.Summarize()
	if top <= 0 {
		top = 10
	}
	var nets []map[string]any
	for _, h := range m.Hardest(c, top) {
		nets = append(nets, map[string]any{
			"net": h.Name,
			"cc0": ceilInf(h.CC0),
			"cc1": ceilInf(h.CC1),
			"co":  ceilInf(h.CO),
			"p1":  cop.P[h.Net],
			"obs": cop.Obs[h.Net],
		})
	}
	minDet, haveDet := 0.0, false
	for _, f := range faults {
		dp := cop.Detect(c, f)
		if dp > 0 && (!haveDet || dp < minDet) {
			minDet, haveDet = dp, true
		}
	}
	sec := map[string]any{
		"scoap": map[string]any{
			"cc0_max": sum.MaxCC0, "cc1_max": sum.MaxCC1, "co_max": sum.MaxCO,
			"cc0_mean": sum.MeanCC0, "cc1_mean": sum.MeanCC1, "co_mean": sum.MeanCO,
			"uncontrollable": sum.Uncontrollable, "unobservable": sum.Unobservable,
		},
		"hardest_nets":       nets,
		"reconvergent_stems": len(ReconvergentStems(c)),
	}
	if haveDet {
		sec["min_detect_prob"] = minDet
		sec["expected_patterns"] = 1 / minDet
	}
	return sec
}

// ceilInf maps the Inf sentinel to -1 for JSON (JSON has no infinity,
// and 1<<30 would read as a legitimate measure).
func ceilInf(v int) int {
	if v >= Inf {
		return -1
	}
	return v
}
