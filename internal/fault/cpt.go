package fault

import (
	"context"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Critical-path-tracing / observability-propagation backend. Per
// 64-pattern block it runs the good machine once (through the pooled
// PPSFP simulator's compiled-kernel load), then computes an
// observability word obs[n] for every net — bit p set when flipping
// net n's value under pattern p changes some view output — walking the
// netlist once in reverse topological order:
//
//   - a view output observes itself on every pattern;
//   - a net read by exactly one combinational pin is observed through
//     it by the chain rule, obs = sens(reader, pin) & obs[reader] —
//     exact on fanout-free regions;
//   - a reconvergent stem (multiple reader pins) falls back to
//     explicit simulation: its complement is event-propagated through
//     the fanout cone (FlipMask) and the detection word is exact by
//     construction.
//
// Detection is then O(1) per fault per block: activation & observation.
// A stuck-at fault behaves as a complement on exactly the patterns
// that activate it, and word operations are lane-independent, so
//
//   det(stem s-a-v @ n)    = (good[n] ^ v…v) & obs[n]
//   det(branch s-a-v @ g.p) = (good[src] ^ v…v) & sens(g,p) & obs[g]
//
// are exact everywhere, not only on fanout-free regions. The engine
// shards the backend over pattern blocks with worker-local detection
// arrays min-merged at the end.

// cptKind classifies a net's combinational fanout for the
// observability recursion.
const (
	cptNone   uint8 = iota // no combinational reader: obs = 0 (or self-observation)
	cptSingle              // exactly one reader pin: chain rule
	cptMulti               // reconvergent stem: explicit complement simulation
)

// cptTopo is the per-circuit fanout classification, shared read-only
// by every worker.
type cptTopo struct {
	kind   []uint8
	reader []int32
	pin    []int32
}

func buildCPTTopo(c *logic.Circuit) *cptTopo {
	n := c.NumNets()
	t := &cptTopo{
		kind:   make([]uint8, n),
		reader: make([]int32, n),
		pin:    make([]int32, n),
	}
	for net := 0; net < n; net++ {
		pins := 0
		reader, pin := -1, -1
		for _, r := range c.Fanout[net] {
			if !c.Gates[r].Type.IsCombinational() {
				continue // DFF capture edges are sequential, invisible to one combinational cycle
			}
			pins++
			if pins == 1 {
				reader = r
				for p, f := range c.Gates[r].Fanin {
					if f == net {
						pin = p
						break
					}
				}
			}
		}
		switch {
		case pins == 0:
			t.kind[net] = cptNone
		case pins == 1:
			t.kind[net] = cptSingle
			t.reader[net] = int32(reader)
			t.pin[net] = int32(pin)
		default:
			t.kind[net] = cptMulti
		}
	}
	return t
}

// cptSim is one worker's CPT state: the pooled PPSFP simulator (good
// words, overlay, event queue for the explicit fallback) plus the
// per-block observability words.
type cptSim struct {
	ps   *ParallelSim
	topo *cptTopo
	obs  []uint64

	nFlips int64 // explicit complement simulations (reconvergent stems)
	nObs   int64 // observability words computed by chain rule / self
}

func newCPTSim(ps *ParallelSim, topo *cptTopo) *cptSim {
	return &cptSim{ps: ps, topo: topo, obs: make([]uint64, ps.c.NumNets())}
}

// sens returns the word of patterns under which gate r's output
// follows (possibly inverted) its pin-th operand, given the loaded
// good machine: AND-types need the other pins at 1, OR-types at 0,
// XOR-types and single-input gates always propagate. Pins are
// independent, so a net tied to two pins of r sensitizes each pin
// against the other's good value — matching the per-pin injection
// semantics of the serial and PPSFP backends.
func (cs *cptSim) sens(r, pin int) uint64 {
	g := &cs.ps.c.Gates[r]
	switch g.Type {
	case logic.And, logic.Nand:
		s := ^uint64(0)
		for i, src := range g.Fanin {
			if i != pin {
				s &= cs.ps.good[src]
			}
		}
		return s
	case logic.Or, logic.Nor:
		s := ^uint64(0)
		for i, src := range g.Fanin {
			if i != pin {
				s &= ^cs.ps.good[src]
			}
		}
		return s
	default: // Buf, Not, Xor, Xnor: always sensitized
		return ^uint64(0)
	}
}

// computeObs fills obs for every net of the loaded block. blockMask
// caps detection to the block's live patterns; every obs word is a
// subset of it, so fault grading needs no further masking.
func (cs *cptSim) computeObs(blockMask uint64) {
	c := cs.ps.c
	order := c.Order
	for i := len(order) - 1; i >= 0; i-- {
		cs.obsOf(order[i], blockMask)
	}
	for _, pi := range c.PIs {
		cs.obsOf(pi, blockMask)
	}
	for _, d := range c.DFFs {
		cs.obsOf(d, blockMask)
	}
}

func (cs *cptSim) obsOf(n int, blockMask uint64) {
	ps := cs.ps
	if ps.isObs[n] {
		cs.obs[n] = blockMask
		cs.nObs++
		return
	}
	switch cs.topo.kind[n] {
	case cptNone:
		cs.obs[n] = 0
		cs.nObs++
	case cptSingle:
		r := int(cs.topo.reader[n])
		cs.obs[n] = cs.obs[r] & cs.sens(r, int(cs.topo.pin[n]))
		cs.nObs++
	default:
		cs.obs[n] = ps.FlipMask(n) & blockMask
		cs.nFlips++
	}
}

// faultMask grades one fault against the loaded block in O(fanin):
// activation AND observation. Faults on source elements (input stems,
// DFF stems, and DFF D-pin faults, which the element passes through)
// pin the source net, mirroring the serial backend's conventions.
func (cs *cptSim) faultMask(f Fault) uint64 {
	ps := cs.ps
	stuck := uint64(0)
	if f.SA == logic.One {
		stuck = ^uint64(0)
	}
	g := &ps.c.Gates[f.Gate]
	if f.Pin == Stem || !g.Type.IsCombinational() {
		return (ps.good[f.Gate] ^ stuck) & cs.obs[f.Gate]
	}
	src := g.Fanin[f.Pin]
	return (ps.good[src] ^ stuck) & cs.sens(f.Gate, f.Pin) & cs.obs[f.Gate]
}

// FlipMask event-propagates the complement of net n's good value
// through its combinational fanout cone and returns the patterns on
// which the flip reaches a view output — the exact observability of n
// for the loaded block. It shares FaultMask's overlay machinery and
// leaves the same transient state (cleared by the next stamp bump).
func (ps *ParallelSim) FlipMask(n int) uint64 {
	ps.cur++
	ps.nMasks++
	c := ps.c

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

	push(n, ^ps.good[n])
	for lv := c.Level[n]; lv < len(ps.byLevel); lv++ {
		bucket := ps.byLevel[lv]
		ps.byLevel[lv] = ps.byLevel[lv][:0]
		for _, id := range bucket {
			g := &c.Gates[id]
			in := ps.scratch[:len(g.Fanin)]
			for i, src := range g.Fanin {
				in[i] = ps.value(src)
			}
			w := g.Type.EvalWord(in)
			ps.nEvals++
			if id == n {
				// The flipped net holds its complement regardless of its
				// own fanins (it models an arbitrary value change).
				w = ^ps.good[n]
			}
			push(id, w)
		}
	}
	return detected
}

// runCPT is the engine's critical-path-tracing path: workers claim
// ascending 64-pattern blocks through an atomic cursor, compute the
// block's observability words once, and grade every fault in O(1),
// recording first detections locally for the final min-merge.
func (e *Engine) runCPT(ctx context.Context, faults []Fault, pats *PackedPatterns) (*Result, error) {
	reg := e.reg
	nPats := pats.NumPatterns()
	nBlocks := pats.NumBlocks()
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "fault.sim.cpt")
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	span.SetAttr("patterns", strconv.Itoa(nPats))
	defer span.End()
	res := newResult(faults, nPats)
	if len(faults) == 0 || nPats == 0 {
		return res, nil
	}
	var prog *telemetry.Progress
	if !e.opts.NoProgress {
		prog = reg.Progress("fault.sim.progress")
		prog.AddTotal(int64(nPats))
	}
	w := e.workers
	if w > nBlocks {
		w = nBlocks
	}
	span.SetAttr("workers", strconv.Itoa(w))
	drop := e.drop()

	flush := func(cs *cptSim) {
		masks, evals := cs.ps.TakeCounts()
		reg.Counter("fault.sim.faultmasks").Add(masks)
		reg.Counter("fault.sim.events").Add(evals)
		reg.Counter("fault.cpt.flips").Add(cs.nFlips)
		reg.Counter("fault.cpt.chain_obs").Add(cs.nObs)
		cs.nFlips, cs.nObs = 0, 0
	}

	if w <= 1 {
		cs := e.cptSim(0)
		blocks, err := cptLoop(ctx, cs, faults, pats, 0, nBlocks, drop, res.Detected, res.DetectedBy, prog)
		reg.Counter("fault.sim.blocks").Add(blocks)
		flush(cs)
		if err != nil {
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
		for _, d := range res.Detected {
			if d {
				res.NumCaught++
			}
		}
		reg.Counter("fault.sim.patterns").Add(int64(nPats))
		reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
		return res, nil
	}

	reg.Gauge("fault.sim.workers").Set(int64(w))
	reg.Counter("fault.engine.runs").Inc()
	e.cptTopo() // build the shared classification before workers scatter
	var cursor, shards, blocks atomic.Int64
	errs := make([]error, w)
	locals := make([][]int, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			cs := e.cptSim(wi)
			det := make([]bool, len(faults))
			detBy := make([]int, len(faults))
			for i := range detBy {
				detBy[i] = -1
			}
			locals[wi] = detBy
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= nBlocks {
					break
				}
				if err := ctx.Err(); err != nil {
					errs[wi] = err
					break
				}
				shards.Add(1)
				nb, err := cptLoop(ctx, cs, faults, pats, bi, bi+1, drop, det, detBy, prog)
				blocks.Add(nb)
				if err != nil {
					errs[wi] = err
					break
				}
			}
			flush(cs)
		}(wi)
	}
	wg.Wait()
	reg.Counter("fault.engine.shards").Add(shards.Load())
	reg.Counter("fault.sim.blocks").Add(blocks.Load())
	for _, err := range errs {
		if err != nil {
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
	}
	mergeDetections(res, locals)
	reg.Counter("fault.sim.patterns").Add(int64(nPats))
	reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
	return res, nil
}

// cptLoop grades blocks [lo, hi) on cs. First detections (within the
// caller's block view) land in detected/detectedBy with absolute
// pattern indices; with drop, faults already recorded are skipped.
// Cancellation is checked between blocks.
func cptLoop(ctx context.Context, cs *cptSim, faults []Fault, pats *PackedPatterns, lo, hi int, drop bool,
	detected []bool, detectedBy []int, prog *telemetry.Progress) (blocks int64, err error) {
	ps := cs.ps
	for bi := lo; bi < hi; bi++ {
		if err := ctx.Err(); err != nil {
			return blocks, err
		}
		words, kb := pats.Block(bi)
		k := ps.LoadPackedBlock(words, kb)
		blocks++
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		cs.computeObs(mask)
		base := bi * 64
		for fi := range faults {
			if detectedBy[fi] >= 0 {
				if drop {
					continue
				}
				// No-drop mode still grades for the work accounting, but
				// the first detection stands.
				cs.faultMask(faults[fi])
				continue
			}
			det := cs.faultMask(faults[fi])
			if det == 0 {
				continue
			}
			detected[fi] = true
			detectedBy[fi] = base + bits.TrailingZeros64(det)
		}
		if prog != nil {
			prog.Add(int64(k))
		}
	}
	return blocks, nil
}

// mergeDetections folds worker-local first-detection arrays into res
// by per-fault minimum, preserving the global first-pattern semantics.
func mergeDetections(res *Result, locals [][]int) {
	for _, detBy := range locals {
		if detBy == nil {
			continue
		}
		for fi, p := range detBy {
			if p < 0 {
				continue
			}
			if !res.Detected[fi] || p < res.DetectedBy[fi] {
				res.Detected[fi] = true
				res.DetectedBy[fi] = p
			}
		}
	}
	res.NumCaught = 0
	for _, d := range res.Detected {
		if d {
			res.NumCaught++
		}
	}
}
