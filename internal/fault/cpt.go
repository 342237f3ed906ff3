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
//
// A grade that never drops runs its blocks in groups of up to
// wideBlocks (four). Every worker loads the group's good machines side
// by side, four words per net, and flips each stem it claims once
// across all the group's lanes (flipWide), paying one gate visit where
// per-block flips would pay up to four. The chain rule, cptMask and
// emit then run block by block, in order, as for one block. A
// one-block group, and every block of a dropping grade, flips on the
// one-word FlipMask, which is faster for a single block.
// Engine.runBlocks drives the loop for explicit cpt, which runs every
// block here, and for Auto, which runs a block here only while at
// least cptPerStem live faults share each stem flip: a no-drop grade
// runs all its blocks here or none, and a dropping grade hands its
// survivors to PPSFP once too few are live.

// minStemShard is the smallest stem share worth a cpt worker: each
// worker pays its own good-machine pass per block, so for a group of
// four blocks it pays four, plus a goroutine hand-off. Flips drop each
// lane once an output shows it, so on 2,000–3,200-gate random
// netlists a one-word flip averages 48–108 gate evaluations, and a
// four-block wide flip 110–130 gate visits, each taking about one and
// a half one-word evaluations' time. A good pass costs as many
// evaluations as 20–60 one-word flips or 15–25 wide ones, though each
// of its evaluations runs on the cheaper compiled kernel. The value 16
// is not tuned to those ratios.
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
	switch t.op[r].Conn() {
	case logic.OpAnd:
		for i, src := range in {
			if int32(i) != pin {
				s &= good[src]
			}
		}
	case logic.OpOr:
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

// cptWorkers is the cpt worker rule: at most one worker per
// minStemShard reconvergent stems, and at least one.
func (e *Engine) cptWorkers() int {
	return max(1, min(e.workers, len(e.topology().stems)/minStemShard))
}

// cptBlocks is the CPT backend's block loop on w workers, for a grade
// with at least one fault and one block. Blocks run in order; before
// each one it checks that the live list still holds at least minLive
// faults, and it stops once it does not or once the list is empty.
// Per block it traces every net's observability word into e.obs,
// grades each live fault through cptMask on worker 0's good machine,
// hands every nonzero detect word to emit and drops the fault once
// emit reports it done. A dropping grade (drop set) flips each stem
// one block at a time and observes fault.sim.drops_per_block once per
// block; a grade that never drops flips each stem once for a group of
// up to wideBlocks blocks (flipWide), then chains, grades and emits
// the group block by block. Progress counts patterns, or under drop
// the faults each block drops. Cancellation is checked between stem
// chunks. It returns the live list and the first block it did not
// grade, and a nil list when the whole list is under minLive, so it
// graded no block.
func (e *Engine) cptBlocks(ctx context.Context, faults []Fault, pats *PackedPatterns, w int, drop bool, minLive int,
	prog *telemetry.Progress, emit emitFunc) (live []int, next int, err error) {
	if len(faults) < minLive {
		return nil, 0, nil
	}
	live = make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	nb := pats.NumBlocks()
	reg := e.reg
	t := e.topology()
	if e.obs == nil {
		e.obs = make([]uint64, e.c.NumNets())
	}
	if !drop && nb > 1 && e.wobs == nil {
		e.wobs = make([]uint64, wideBlocks*len(t.stems))
	}
	obs, wobs := e.obs, e.wobs
	var dropHist *telemetry.Histogram
	if drop {
		dropHist = reg.Histogram("fault.sim.drops_per_block")
	}
	var flips, chained int64
	defer func() {
		for wi := 0; wi < w; wi++ {
			e.flushCounts(e.sim(wi))
		}
		reg.Counter("fault.cpt.flips").Add(flips)
		reg.Counter("fault.cpt.chain_obs").Add(chained)
		reg.Counter("fault.sim.blocks").Add(int64(next))
	}()
	for next < nb && len(live) > 0 && len(live) >= minLive {
		g := 1
		if !drop {
			g = min(wideBlocks, nb-next)
		}
		bi := next
		stems := &cursor{n: len(t.stems), chunk: stemChunk}
		err := e.fanOut(w, func(wi int) error {
			ps := e.sim(wi)
			var masks [wideBlocks]uint64
			if g == 1 {
				words, kb := pats.Block(bi)
				masks[0] = blockMask(ps.LoadPackedBlock(words, kb))
			} else {
				masks = ps.loadWide(pats, bi, g)
			}
			for {
				if err := ctx.Err(); err != nil {
					return err
				}
				lo, hi, ok := stems.claim()
				if !ok {
					return nil
				}
				for k := lo; k < hi; k++ {
					s := t.stems[k]
					if g == 1 {
						obs[s] = ps.FlipMask(int(s), masks[0])
					} else {
						*(*[wideBlocks]uint64)(wobs[k*wideBlocks:]) = ps.flipWide(s, masks)
					}
				}
			}
		})
		if err != nil {
			return live, next, err
		}
		flips += int64(len(t.stems))
		ps := e.sim(0)
		for j := 0; j < g; j++ {
			_, kb := pats.Block(bi + j)
			good := ps.good
			if g > 1 {
				good = ps.wideGood(j)
				for k, s := range t.stems {
					obs[s] = wobs[k*wideBlocks+j]
				}
			}
			live = e.cptGrade(faults, live, bi+j, blockMask(kb), good, dropHist, prog, emit)
			chained += int64(len(t.chain))
			if prog != nil && !drop {
				prog.Add(int64(kb))
			}
			next++
		}
	}
	return live, next, nil
}

// cptGrade finishes block bi once its stems' observability words are
// in e.obs: the reverse-topological chain-rule pass fills in every
// other net, then each live fault is graded through cptMask and handed
// to emit. It returns the faults emit did not report done, in order.
// Under dropping, dropHist observes how many faults the block dropped
// and prog counts them.
func (e *Engine) cptGrade(faults []Fault, live []int, bi int, mask uint64, good []uint64,
	dropHist *telemetry.Histogram, prog *telemetry.Progress, emit emitFunc) []int {
	t, obs := e.topology(), e.obs
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
	next := live[:0]
	for _, fi := range live {
		if det := e.cptMask(faults[fi], good); det == 0 || !emit(fi, bi, det) {
			next = append(next, fi)
		}
	}
	if dropHist != nil {
		dropped := int64(len(live) - len(next))
		dropHist.Observe(dropped)
		if prog != nil {
			prog.Add(dropped)
		}
	}
	return next
}

// wideBlocks is the most pattern blocks one wide stem flip carries: a
// no-drop cpt grade loads the good machines of up to four blocks side
// by side and flips each stem once across all 256 lanes.
const wideBlocks = 4

// loadWide computes the good machine of g ≤ wideBlocks consecutive
// blocks of pats from block b0, one LoadPackedBlock pass each, and
// lays their words out side by side in ps.wgood: block j's word of net
// n at n*wideBlocks+j. It returns each block's live-lane mask; the
// masks past g are zero, so those words never enter a flip's care.
// The wide arrays are allocated on the first call.
func (ps *ParallelSim) loadWide(pats *PackedPatterns, b0, g int) (masks [wideBlocks]uint64) {
	if ps.wgood == nil {
		ps.wgood = make([]uint64, wideBlocks*len(ps.good))
		ps.wcur = make([]uint64, wideBlocks*len(ps.good))
	}
	for j := 0; j < g; j++ {
		words, kb := pats.Block(b0 + j)
		masks[j] = blockMask(ps.LoadPackedBlock(words, kb))
		for n, w := range ps.good {
			ps.wgood[n*wideBlocks+j] = w
		}
	}
	copy(ps.wcur, ps.wgood)
	return masks
}

// wideGood copies block j of the loaded wide group's good words into
// ps.good and returns it. It leaves ps.cur alone, so the next
// one-word propagation must follow a LoadPackedBlock.
func (ps *ParallelSim) wideGood(j int) []uint64 {
	for n := range ps.good {
		ps.good[n] = ps.wgood[n*wideBlocks+j]
	}
	return ps.good
}

// flipWide is FlipMask across a group loadWide loaded: it event-
// propagates the complement of stem n's good words in every block at
// once and returns, per block, the lanes of care on which the flip
// reaches a view output. Like FlipMask it drops each lane once an
// output has shown it, and it stops once all the care words are
// empty. It shares ps's worklist and dirty list with the one-word
// kernel and counts one evaluation per gate visit, so a gate carried
// for four blocks costs fault.sim.events one, as for one block.
func (ps *ParallelSim) flipWide(n int32, care [wideBlocks]uint64) (det [wideBlocks]uint64) {
	ps.nMasks++
	t, good, cur := ps.t, ps.wgood, ps.wcur
	for _, d := range ps.dirty {
		copy(cur[d*wideBlocks:(d+1)*wideBlocks], good[d*wideBlocks:(d+1)*wideBlocks])
	}
	ps.dirty = ps.dirty[:0]
	if care == ([wideBlocks]uint64{}) {
		return det
	}
	g := (*[wideBlocks]uint64)(good[n*wideBlocks:])
	ps.setWide(n, [wideBlocks]uint64{^g[0], ^g[1], ^g[2], ^g[3]}, &care, &det)
	for lv := t.level[n] + 1; ps.pending > 0; lv++ {
		bucket := ps.byLevel[lv]
		ps.byLevel[lv] = bucket[:0]
		ps.pending -= len(bucket)
		for i, id := range bucket {
			if care == ([wideBlocks]uint64{}) {
				ps.nEvals += int64(i)
				ps.drain(bucket[i:], lv)
				return det
			}
			ps.queued[id] = false
			var nw [wideBlocks]uint64 // t.eval over the wide layout
			in := t.fanin[t.fanStart[id]:t.fanStart[id+1]]
			switch t.op[id].Conn() {
			case logic.OpAnd:
				nw = [wideBlocks]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
				for _, s := range in {
					x := (*[wideBlocks]uint64)(cur[s*wideBlocks:])
					nw[0] &= x[0]
					nw[1] &= x[1]
					nw[2] &= x[2]
					nw[3] &= x[3]
				}
			case logic.OpOr:
				for _, s := range in {
					x := (*[wideBlocks]uint64)(cur[s*wideBlocks:])
					nw[0] |= x[0]
					nw[1] |= x[1]
					nw[2] |= x[2]
					nw[3] |= x[3]
				}
			default:
				for _, s := range in {
					x := (*[wideBlocks]uint64)(cur[s*wideBlocks:])
					nw[0] ^= x[0]
					nw[1] ^= x[1]
					nw[2] ^= x[2]
					nw[3] ^= x[3]
				}
			}
			inv := t.inv[id]
			nw[0] ^= inv
			nw[1] ^= inv
			nw[2] ^= inv
			nw[3] ^= inv
			c := (*[wideBlocks]uint64)(cur[id*wideBlocks:])
			if (nw[0]^c[0])&care[0]|(nw[1]^c[1])&care[1]|(nw[2]^c[2])&care[2]|(nw[3]^c[3])&care[3] != 0 {
				ps.setWide(id, nw, &care, &det)
			}
		}
		ps.nEvals += int64(len(bucket))
	}
	return det
}

// setWide is set for the wide layout: it writes words w to net n,
// moves any detection in care lanes from care into det and queues n's
// combinational readers.
func (ps *ParallelSim) setWide(n int32, w [wideBlocks]uint64, care, det *[wideBlocks]uint64) {
	*(*[wideBlocks]uint64)(ps.wcur[n*wideBlocks:]) = w
	ps.dirty = append(ps.dirty, n)
	if ps.t.isObs[n] {
		g := (*[wideBlocks]uint64)(ps.wgood[n*wideBlocks:])
		for j := range w {
			d := (w[j] ^ g[j]) & care[j]
			det[j] |= d
			care[j] &^= d
		}
	}
	ps.queueReaders(n)
}
