package fault

import (
	"context"
	"math/bits"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Critical-path-tracing / observability-propagation backend. Per
// 64-pattern block it runs the good machine (through the pooled PPSFP
// simulators' compiled-kernel load), then computes an observability
// word obs[n] for every net — bit p set when flipping net n's value
// under pattern p changes some view output:
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
// are exact everywhere, not only on fanout-free regions. The stem
// flips dominate a block's cost and depend only on the good machine,
// so the engine shards them: every worker loads the block, workers
// claim chunks of the stem list through an atomic cursor, and one
// reverse-topological chain-rule pass then fills in the other nets.
// Blocks run in order, so first detections need no merging.

// minStemShard is the smallest stem share worth a cpt worker: each
// worker pays its own good-machine pass per block, which costs about
// one flip on large netlists, plus a goroutine hand-off.
const minStemShard = 16

// stemChunk is how many stems a cpt worker claims at a time.
const stemChunk = 8

// sens returns the word of patterns under which gate r's output
// follows (possibly inverted) its pin-th operand, given the good
// machine: AND-types need the other pins at 1, OR-types at 0,
// XOR-types and single-input gates always propagate. Pins are
// independent, so a net tied to two pins of r sensitizes each pin
// against the other's good value — matching the per-pin injection
// semantics of the serial and PPSFP backends.
func (t *topology) sens(r, pin int32, good []uint64) uint64 {
	s := ^uint64(0)
	in := t.fanin[t.fanStart[r]:t.fanStart[r+1]]
	switch t.op[r] {
	case opAnd:
		for i, src := range in {
			if int32(i) != pin {
				s &= good[src]
			}
		}
	case opOr:
		for i, src := range in {
			if int32(i) != pin {
				s &^= good[src]
			}
		}
	}
	return s
}

// cptMask grades one fault against the block's observability words in
// O(fanin): activation AND observation. Faults on source elements
// (input stems, DFF stems, and DFF D-pin faults, which the element
// passes through) pin the source net, mirroring the serial backend's
// conventions.
func (e *Engine) cptMask(f Fault, good []uint64) uint64 {
	stuck := uint64(0)
	if f.SA == logic.One {
		stuck = ^uint64(0)
	}
	g := &e.c.Gates[f.Gate]
	if f.Pin == Stem || !g.Type.IsCombinational() {
		return (good[f.Gate] ^ stuck) & e.obs[f.Gate]
	}
	src := g.Fanin[f.Pin]
	return (good[src] ^ stuck) & e.topology().sens(int32(f.Gate), int32(f.Pin), good) & e.obs[f.Gate]
}

// cptBlocks is the block loop runCPT and RunDetail share: for each
// block in order it traces every net's observability word into e.obs
// on up to e.workers workers, then hands worker 0's good machine to
// grade, which reads the words through cptMask. Cancellation is
// checked between stem chunks.
func (e *Engine) cptBlocks(ctx context.Context, pats *PackedPatterns, span *telemetry.Span,
	grade func(bi int, good []uint64)) error {
	reg := e.reg
	t := e.topology()
	w := e.noteWorkers(span, min(e.workers, len(t.stems)/minStemShard))
	if e.obs == nil {
		e.obs = make([]uint64, e.c.NumNets())
	}
	obs := e.obs
	prog := e.progress(int64(pats.NumPatterns()))
	var flips, chained, blocks int64
	defer func() {
		for wi := 0; wi < w; wi++ {
			e.flushCounts(e.sim(wi))
		}
		reg.Counter("fault.cpt.flips").Add(flips)
		reg.Counter("fault.cpt.chain_obs").Add(chained)
		reg.Counter("fault.sim.blocks").Add(blocks)
	}()
	for bi := 0; bi < pats.NumBlocks(); bi++ {
		words, kb := pats.Block(bi)
		mask := blockMask(kb)
		stems := &cursor{n: len(t.stems), chunk: stemChunk}
		err := e.fanOut(w, func(wi int) error {
			ps := e.sim(wi)
			ps.LoadPackedBlock(words, kb)
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				lo, hi, ok := stems.claim()
				if !ok {
					return nil
				}
				for _, s := range t.stems[lo:hi] {
					obs[s] = ps.FlipMask(int(s)) & mask
				}
			}
		})
		if err != nil {
			return err
		}
		good := e.sim(0).good
		for _, n := range t.chain {
			switch {
			case t.isObs[n]:
				obs[n] = mask
			case t.kind[n] == cptNone:
				obs[n] = 0
			default:
				r := t.reader[n]
				obs[n] = obs[r] & t.sens(r, t.pin[n], good)
			}
		}
		flips += int64(len(t.stems))
		chained += int64(len(t.chain))
		blocks++
		grade(bi, good)
		if prog != nil {
			prog.Add(int64(kb))
		}
	}
	return nil
}

// runCPT is the engine's critical-path-tracing path: blocks run in
// order, each block's observability words are traced once with the
// stem flips sharded across workers, and every still-undetected fault
// grades in O(1). A detected fault is skipped in either drop mode,
// since its first detection stands.
func (e *Engine) runCPT(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns) (*Result, error) {
	res := newResult(faults, pats.NumPatterns())
	if len(faults) == 0 || pats.NumPatterns() == 0 {
		return res, nil
	}
	err := e.cptBlocks(ctx, pats, span, func(bi int, good []uint64) {
		for fi, f := range faults {
			if res.Detected[fi] {
				continue
			}
			if det := e.cptMask(f, good); det != 0 {
				res.Detected[fi] = true
				res.DetectedBy[fi] = bi*64 + bits.TrailingZeros64(det)
				res.NumCaught++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
