// Package syndrome implements Syndrome Testing (Savir [115],[116];
// Fig. 23): apply all 2ⁿ input patterns, count the ones on each
// output, and compare the count with the good machine's. The syndrome
// S = K/2ⁿ is a single number per output, so the test data volume is
// minimal; the price is that some detectable faults are syndrome-
// untestable (they flip equally many minterms each way), and the
// network must be modified — extra primary inputs held at
// noncontrolling values — to expose them.
package syndrome

import (
	"context"
	"fmt"
	"math/bits"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
)

// MaxExhaustiveInputs bounds 2ⁿ enumeration.
const MaxExhaustiveInputs = 24

// identityFree returns the free-variable positions 0..n-1 for packed
// exhaustive enumeration over the primary inputs.
func identityFree(n int) []int {
	free := make([]int, n)
	for i := range free {
		free[i] = i
	}
	return free
}

func blockMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// Syndromes returns K (ones count) and S = K/2ⁿ for every primary
// output of a combinational circuit, by exhaustive bit-parallel
// simulation. The enumeration is packed: each 64-pattern block is
// synthesized from periodic bit masks straight into the primary-input
// words and graded by one pass of the compiled 64-way kernel.
func Syndromes(c *logic.Circuit) (counts []int, syndromes []float64) {
	n := len(c.PIs)
	if n > MaxExhaustiveInputs {
		panic(fmt.Sprintf("syndrome: %d inputs exceed exhaustive limit %d", n, MaxExhaustiveInputs))
	}
	counts = make([]int, len(c.POs))
	total := uint64(1) << uint(n)
	prog := sim.CompiledFor(c)
	vals := make([]uint64, c.NumNets())
	for base := uint64(0); base < total; base += 64 {
		mask := blockMask(sim.ExhaustiveBlock(vals, c.PIs, base))
		prog.Exec(vals)
		for j, po := range c.POs {
			counts[j] += bits.OnesCount64(vals[po] & mask)
		}
	}
	syndromes = make([]float64, len(counts))
	for j, k := range counts {
		syndromes[j] = float64(k) / float64(total)
	}
	return counts, syndromes
}

// FaultCounts returns, for each fault, the per-output ones counts of
// the faulty machine under exhaustive patterns, enumerated in packed
// blocks.
func FaultCounts(c *logic.Circuit, faults []fault.Fault) [][]int {
	n := len(c.PIs)
	if n > MaxExhaustiveInputs {
		panic(fmt.Sprintf("syndrome: %d inputs exceed exhaustive limit %d", n, MaxExhaustiveInputs))
	}
	ps := fault.NewParallelSim(c)
	out := make([][]int, len(faults))
	for i := range out {
		out[i] = make([]int, len(c.POs))
	}
	total := uint64(1) << uint(n)
	free := identityFree(n)
	words := make([]uint64, n)
	for base := uint64(0); base < total; base += 64 {
		k := sim.ExhaustiveBlock(words, free, base)
		ps.LoadPackedBlock(words, k)
		mask := blockMask(k)
		for fi, f := range faults {
			ps.FaultMask(f)
			for j, po := range c.POs {
				out[fi][j] += bits.OnesCount64(ps.FaultyWord(po) & mask)
			}
		}
	}
	return out
}

// Testability classifies each fault: Detectable means some pattern
// distinguishes it (classical testability); SyndromeTestable means
// some output's ones-count differs, i.e. the Fig. 23 tester catches it.
type Testability struct {
	Fault            fault.Fault
	Detectable       bool
	SyndromeTestable bool
}

// Classify computes syndrome testability for every fault.
func Classify(c *logic.Circuit, faults []fault.Fault) []Testability {
	goodCounts, _ := Syndromes(c)
	fc := FaultCounts(c, faults)

	// Classical detectability via exhaustive fault simulation on the
	// packed enumeration (64× smaller than materialized scalar vectors).
	pats := fault.ExhaustivePatterns(len(c.PIs))
	det, _ := fault.NewEngine(c, fault.Options{}).RunPacked(context.Background(), faults, pats)

	out := make([]Testability, len(faults))
	for i, f := range faults {
		st := false
		for j := range goodCounts {
			if fc[i][j] != goodCounts[j] {
				st = true
				break
			}
		}
		out[i] = Testability{Fault: f, Detectable: det.Detected[i], SyndromeTestable: st}
	}
	return out
}

// Untestable returns the detectable-but-syndrome-untestable faults —
// the ones Savir's network modifications go after.
func Untestable(ts []Testability) []fault.Fault {
	var out []fault.Fault
	for _, t := range ts {
		if t.Detectable && !t.SyndromeTestable {
			out = append(out, t.Fault)
		}
	}
	return out
}

// MakeTestable adds up to maxExtra primary inputs (held at
// noncontrolling values during normal operation) to AND/OR-class gates
// so that previously syndrome-untestable faults become testable — the
// paper's "procedures ... with a minimal or near minimal number of
// primary inputs to make the networks syndrome testable". It returns
// the modified circuit, the number of inputs added, and the remaining
// untestable fault count.
//
// The original fault list is re-derived after each modification since
// net IDs are preserved (the transformation only appends elements).
func MakeTestable(c *logic.Circuit, maxExtra int) (*logic.Circuit, int, int) {
	cur := c
	added := 0
	remaining := countUntestable(cur)
	for added < maxExtra && remaining > 0 {
		best, bestRemaining := (*logic.Circuit)(nil), remaining
		for id := range cur.Gates {
			switch cur.Gates[id].Type {
			case logic.And, logic.Nand, logic.Or, logic.Nor:
			default:
				continue
			}
			trial := widenGate(cur, id)
			if trial == nil {
				continue
			}
			r := countUntestable(trial)
			if r < bestRemaining {
				best, bestRemaining = trial, r
				if r == 0 {
					break
				}
			}
		}
		if best == nil {
			break // no single-input extension helps
		}
		cur, remaining = best, bestRemaining
		added++
	}
	return cur, added, remaining
}

// widenGate clones the circuit and appends a fresh primary input to
// gate id's fanin. Returns nil when the result would exceed the
// exhaustive limit.
func widenGate(c *logic.Circuit, id int) *logic.Circuit {
	if len(c.PIs)+1 > MaxExhaustiveInputs {
		return nil
	}
	nc := c.Clone()
	w := nc.AddInput(fmt.Sprintf("SYN%d_%s", len(c.PIs), c.NameOf(id)))
	nc.Gates[id].Fanin = append(nc.Gates[id].Fanin, w)
	nc.MustFinalize()
	return nc
}

func countUntestable(c *logic.Circuit) int {
	cl := fault.Collapse(c)
	return len(Untestable(Classify(c, cl.Reps)))
}

// Tester models the Fig. 23 structure: a pattern generator cycling all
// 2ⁿ inputs, a ones counter on one output, and a comparator against
// the reference syndrome.
type Tester struct {
	Reference []int // good-machine K per output
}

// NewTester learns the reference counts from the good machine.
func NewTester(c *logic.Circuit) *Tester {
	counts, _ := Syndromes(c)
	return &Tester{Reference: counts}
}

// Pass runs the unit under test (possibly faulty) and compares counts.
func (t *Tester) Pass(c *logic.Circuit, f *fault.Fault) bool {
	var counts []int
	if f == nil {
		counts, _ = Syndromes(c)
	} else {
		fc := FaultCounts(c, []fault.Fault{*f})
		counts = fc[0]
	}
	for j := range t.Reference {
		if counts[j] != t.Reference[j] {
			return false
		}
	}
	return true
}

// DataVolume returns the tester storage for syndrome testing: one
// count per output — versus storing full response vectors.
func DataVolume(c *logic.Circuit) (syndromeWords, fullResponseBits int) {
	n := len(c.PIs)
	return len(c.POs), len(c.POs) * (1 << uint(n))
}
