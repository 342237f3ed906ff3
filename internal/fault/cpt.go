package fault

import (
	"context"

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
//     construction. The flip carries only the block's live lanes and
//     drops each one as soon as some view output shows it, so a stem
//     observed early on every lane stops after a few levels.
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
// worker pays its own good-machine pass per block, plus a goroutine
// hand-off. Flips drop each lane once an output shows it, so on
// 2,000–3,200-gate random netlists a flip averages 48–108 gate
// evaluations and a good pass costs as many as 20–60 flips, though
// each of its evaluations runs on the cheaper compiled kernel. The
// value 16 is not tuned to those ratios.
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

// cptBlocks is the CPT backend's block loop: for each block in order
// it traces every net's observability word into e.obs on up to
// e.workers workers, then grades each live fault through cptMask on
// worker 0's good machine, hands every nonzero detect word to emit and
// drops the fault once emit reports it done. Cancellation is checked
// between stem chunks.
func (e *Engine) cptBlocks(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns, emit emitFunc) error {
	if len(faults) == 0 || pats.NumPatterns() == 0 {
		return nil
	}
	reg := e.reg
	t := e.topology()
	w := e.noteWorkers(span, min(e.workers, len(t.stems)/minStemShard))
	if e.obs == nil {
		e.obs = make([]uint64, e.c.NumNets())
	}
	obs := e.obs
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
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
					obs[s] = ps.FlipMask(int(s), mask)
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
		next := live[:0]
		for _, fi := range live {
			if det := e.cptMask(faults[fi], good); det == 0 || !emit(fi, bi, det) {
				next = append(next, fi)
			}
		}
		live = next
		if prog != nil {
			prog.Add(int64(kb))
		}
	}
	return nil
}
