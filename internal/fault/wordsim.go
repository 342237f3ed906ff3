package fault

import (
	"context"
	"math/bits"

	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// Result accumulates combinational fault-simulation outcomes across
// pattern batches.
type Result struct {
	Faults     []Fault
	Detected   []bool
	DetectedBy []int // index of first detecting pattern, -1 if none
	NumCaught  int
	NumPats    int
}

// Coverage returns the single stuck-at fault coverage: detected faults
// divided by assumed faults — the paper's defining metric.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.NumCaught) / float64(len(r.Faults))
}

// Undetected returns the faults not yet detected.
func (r *Result) Undetected() []Fault {
	var out []Fault
	for i, f := range r.Faults {
		if !r.Detected[i] {
			out = append(out, f)
		}
	}
	return out
}

// ParallelSim is a 64-way parallel-pattern single-fault-propagation
// (PPSFP) fault simulator. Patterns are packed 64 to a word; each
// fault is injected once per block and its effects propagated through
// the fanout cone only.
//
// The simulator is view-aware: the controllable nets (pattern bit
// positions) and observable nets are configurable, so the same engine
// serves plain combinational circuits (PIs/POs) and scan designs
// (PIs+flip-flops / POs+flip-flop D inputs). Source elements not in
// the input list are held at 0, the toolkit's reset state.
type ParallelSim struct {
	c       *logic.Circuit
	prog    *sim.Program // compiled good-machine kernel
	inputs  []int
	good    sim.Words
	val     []uint64 // overlay of faulty values
	stamp   []int    // overlay validity: stamp[n] == cur
	queued  []int
	cur     int
	byLevel [][]int // worklist buckets indexed by level
	isObs   []bool
	scratch []uint64
	packBuf []uint64 // LoadBlock's packing buffer, one word per input
	liveBuf []int    // blockLoop's live list, reused across calls

	// Work counters, accumulated as plain ints (the simulator is owned
	// by one goroutine) and drained in batches via TakeCounts so hot
	// loops pay no atomics.
	nMasks int64 // FaultMask invocations
	nEvals int64 // gate (word) evaluations, good + faulty
}

// TakeCounts returns and resets the simulator's work counters: fault
// injections simulated and gate-level word evaluations performed.
// Drivers drain this into a telemetry registry once per block or run.
func (ps *ParallelSim) TakeCounts() (masks, evals int64) {
	masks, evals = ps.nMasks, ps.nEvals
	ps.nMasks, ps.nEvals = 0, 0
	return masks, evals
}

// NewParallelSim builds a simulator observing the primary view
// (patterns over c.PIs, detection at c.POs).
func NewParallelSim(c *logic.Circuit) *ParallelSim {
	return NewParallelSimView(c, c.PIs, c.POs)
}

// NewParallelSimView builds a simulator with explicit controllable and
// observable nets. Every input must be a source element (Input or DFF).
func NewParallelSimView(c *logic.Circuit, inputs, outputs []int) *ParallelSim {
	n := c.NumNets()
	ps := &ParallelSim{
		c:       c,
		prog:    sim.CompiledFor(c),
		inputs:  append([]int(nil), inputs...),
		good:    make(sim.Words, n),
		val:     make([]uint64, n),
		stamp:   make([]int, n),
		queued:  make([]int, n),
		byLevel: make([][]int, c.Depth()+1),
		isObs:   make([]bool, n),
		scratch: make([]uint64, c.MaxFanin()),
		packBuf: make([]uint64, len(inputs)),
	}
	for _, in := range inputs {
		if c.Gates[in].Type.IsCombinational() {
			panic("fault: view input " + c.NameOf(in) + " is not a source element")
		}
	}
	for i := range ps.stamp {
		ps.stamp[i] = -1
		ps.queued[i] = -1
	}
	for _, o := range outputs {
		ps.isObs[o] = true
	}
	return ps
}

// LoadBlock packs up to 64 patterns (each one bit per view input) and
// computes the good-machine response. It returns the number of
// patterns loaded.
func (ps *ParallelSim) LoadBlock(patterns [][]bool) int {
	if len(patterns) > 64 {
		patterns = patterns[:64]
	}
	k := sim.PackPatternsInto(patterns, ps.packBuf)
	return ps.LoadPackedBlock(ps.packBuf, k)
}

// LoadPackedBlock loads an already-packed block (one word per view
// input, k patterns in the low bits) and computes the good-machine
// response through the compiled kernel. Words are masked to k bits, so a
// shared block may carry stale high bits. It returns k (capped at 64).
func (ps *ParallelSim) LoadPackedBlock(words []uint64, k int) int {
	if k > 64 {
		k = 64
	}
	c := ps.c
	// Source elements default to 0.
	for _, pi := range c.PIs {
		ps.good[pi] = 0
	}
	for _, d := range c.DFFs {
		ps.good[d] = 0
	}
	mask := ^uint64(0)
	if k < 64 {
		mask = 1<<uint(k) - 1
	}
	for i, in := range ps.inputs {
		ps.good[in] = words[i] & mask
	}
	ps.prog.Exec(ps.good)
	ps.nEvals += int64(len(c.Order))
	return k
}

// value returns the current (possibly faulty) word of a net.
func (ps *ParallelSim) value(n int) uint64 {
	if ps.stamp[n] == ps.cur {
		return ps.val[n]
	}
	return ps.good[n]
}

// FaultMask simulates one fault against the loaded block, returning a
// bitmask of the patterns (bit p = pattern p) that detect it.
func (ps *ParallelSim) FaultMask(f Fault) uint64 {
	ps.cur++
	ps.nMasks++
	c := ps.c
	stuckWord := uint64(0)
	if f.SA == logic.One {
		stuckWord = ^uint64(0)
	}

	var detected uint64
	push := func(net int, word uint64) {
		if word == ps.value(net) {
			return
		}
		ps.val[net] = word
		ps.stamp[net] = ps.cur
		if ps.isObs[net] {
			detected |= word ^ ps.good[net]
		}
		for _, reader := range c.Fanout[net] {
			if !c.Gates[reader].Type.IsCombinational() {
				continue
			}
			if ps.queued[reader] != ps.cur {
				ps.queued[reader] = ps.cur
				lv := c.Level[reader]
				ps.byLevel[lv] = append(ps.byLevel[lv], reader)
			}
		}
	}

	var startLevel int
	if f.Pin == Stem {
		push(f.Gate, stuckWord)
		startLevel = c.Level[f.Gate]
	} else {
		// Branch fault: only gate f.Gate sees the corrupt operand.
		g := &c.Gates[f.Gate]
		in := ps.scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			in[i] = ps.value(src)
		}
		in[f.Pin] = stuckWord
		push(f.Gate, g.Type.EvalWord(in))
		ps.nEvals++
		startLevel = c.Level[f.Gate]
	}

	for lv := startLevel; lv < len(ps.byLevel); lv++ {
		bucket := ps.byLevel[lv]
		ps.byLevel[lv] = ps.byLevel[lv][:0]
		for _, id := range bucket {
			if id == f.Gate && f.Pin != Stem {
				// Already evaluated with the corrupt operand.
				continue
			}
			g := &c.Gates[id]
			in := ps.scratch[:len(g.Fanin)]
			for i, src := range g.Fanin {
				in[i] = ps.value(src)
			}
			w := g.Type.EvalWord(in)
			ps.nEvals++
			if f.Pin == Stem && id == f.Gate {
				w = stuckWord
			}
			push(id, w)
		}
	}
	return detected
}

// GoodWord returns the good-machine word of net n for the loaded block.
func (ps *ParallelSim) GoodWord(n int) uint64 { return ps.good[n] }

// FaultyWord returns net n's word as left by the most recent FaultMask
// call (the good word if the fault never reached n).
func (ps *ParallelSim) FaultyWord(n int) uint64 { return ps.value(n) }

// liveFor returns the simulator's reusable live-fault scratch list,
// grown to n entries.
func (ps *ParallelSim) liveFor(n int) []int {
	if cap(ps.liveBuf) < n {
		ps.liveBuf = make([]int, n)
	}
	return ps.liveBuf[:n]
}

// blockLoop grades faults against the packed pattern set block by
// block on ps, writing outcomes into detected and detectedBy (indexed
// like faults; recorded pattern indices are absolute within the set).
// It is the shared inner loop of every parallel-pattern path: the
// engine calls it once per shard with subslices of the full result
// arrays, so all writes stay inside the caller's range. The pattern
// blocks are packed once by the caller and shared read-only across
// every shard and worker. Work counters accumulate on ps for the
// caller to drain, the live list reuses ps scratch (no allocation
// after warmup), and cancellation is checked between blocks.
func blockLoop(ctx context.Context, ps *ParallelSim, faults []Fault, pats *PackedPatterns, drop bool,
	detected []bool, detectedBy []int, dropHist *telemetry.Histogram) (caught int, blocks int64, err error) {
	live := ps.liveFor(len(faults))
	for i := range live {
		live[i] = i
	}
	for bi := 0; bi < pats.NumBlocks(); bi++ {
		if err := ctx.Err(); err != nil {
			return caught, blocks, err
		}
		base := bi * 64
		words, kb := pats.Block(bi)
		k := ps.LoadPackedBlock(words, kb)
		blocks++
		caughtBefore := caught
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		next := live[:0]
		for _, fi := range live {
			det := ps.FaultMask(faults[fi]) & mask
			if det == 0 {
				next = append(next, fi)
				continue
			}
			if !detected[fi] {
				detected[fi] = true
				detectedBy[fi] = base + bits.TrailingZeros64(det)
				caught++
			}
			if !drop {
				next = append(next, fi)
			}
		}
		if drop && dropHist != nil {
			dropHist.Observe(int64(caught - caughtBefore))
		}
		live = next
		if len(live) == 0 {
			break
		}
	}
	return caught, blocks, nil
}
