package fault

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// DetailResult is the per-pattern grading record behind fault
// dictionaries: one packed row of detect bits per fault, bit p%64 of
// word p/64 set when pattern p detects the fault at the view outputs.
// Where Result keeps only the first detection, a DetailResult keeps
// every one — the pass/fail column a tester compares an observed
// failing signature against. Rows are byte-identical for every
// backend and worker count: each backend computes exact per-pattern
// detect words and the schedulers only ever write disjoint row words.
type DetailResult struct {
	Faults  []Fault
	NumPats int
	// Detect[fi] is fault fi's packed row, detailWords(NumPats) long.
	Detect [][]uint64
}

// detailWords is the packed row length for a pattern count.
func detailWords(nPats int) int { return (nPats + 63) / 64 }

// Row returns fault fi's packed detect row (shared, not a copy).
func (dr *DetailResult) Row(fi int) []uint64 { return dr.Detect[fi] }

// Detects reports whether pattern p detects fault fi.
func (dr *DetailResult) Detects(fi, p int) bool {
	return dr.Detect[fi][p/64]>>(uint(p)%64)&1 == 1
}

// FirstDetect returns the lowest-indexed detecting pattern for fault
// fi, or -1 when no pattern detects it.
func (dr *DetailResult) FirstDetect(fi int) int {
	for w, word := range dr.Detect[fi] {
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Result folds the rows into the classic first-detection Result, the
// form the cross-oracle compares against an independent grade.
func (dr *DetailResult) Result() *Result {
	res := newResult(dr.Faults, dr.NumPats)
	for fi := range dr.Detect {
		if p := dr.FirstDetect(fi); p >= 0 {
			res.Detected[fi] = true
			res.DetectedBy[fi] = p
			res.NumCaught++
		}
	}
	return res
}

// SimulateDetail grades every fault against every pattern and returns
// the full per-pattern detect rows. Dropping never applies — a
// dictionary needs the whole column, not just the first hit — so the
// Options.Drop field is ignored. See Engine.RunDetail.
func SimulateDetail(ctx context.Context, c *logic.Circuit, faults []Fault, patterns [][]bool, opts Options) (*DetailResult, error) {
	e := NewEngine(c, opts)
	return e.RunDetail(ctx, faults, PackPatternSet(len(e.inputs), patterns))
}

// RunDetail is the engine's detail-grading path: exact per-pattern
// detect rows for every fault, honoring context cancellation between
// pattern blocks. Two scheduler shapes cover the packed backends —
// the PPSFP path shards the fault axis (each worker owns whole rows),
// while the CPT path shards each block's reconvergent stems and grades
// the rows from one goroutine — so all writes are disjoint and the
// rows are byte-identical at every worker count. The serial backend
// has no packed per-pattern form; it falls back to the PPSFP path,
// which computes the same rows, and the span records the backend that
// actually ran.
func (e *Engine) RunDetail(ctx context.Context, faults []Fault, pats *PackedPatterns) (*DetailResult, error) {
	if pats.NumInputs() != len(e.inputs) {
		panic(fmt.Sprintf("fault: packed patterns are %d wide for %d view inputs", pats.NumInputs(), len(e.inputs)))
	}
	reg := e.reg
	nPats := pats.NumPatterns()
	dr := &DetailResult{Faults: faults, NumPats: nPats, Detect: make([][]uint64, len(faults))}
	words := detailWords(nPats)
	backing := make([]uint64, words*len(faults))
	for fi := range dr.Detect {
		dr.Detect[fi] = backing[fi*words : (fi+1)*words : (fi+1)*words]
	}
	if len(faults) == 0 || nPats == 0 {
		return dr, nil
	}
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "fault.sim.detail")
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	span.SetAttr("patterns", strconv.Itoa(nPats))
	defer span.End()
	var prog *telemetry.Progress
	if !e.opts.NoProgress {
		prog = reg.Progress("fault.sim.progress")
	}
	be := e.opts.Backend
	if be == Auto {
		// A detail grade is always a no-drop full grading — every fault
		// against every pattern — so Auto resolves through the same
		// heuristic as Run with dropping off. Large jobs land on CPT
		// (one observability pass per block, O(fanin) per fault), which
		// is what makes engine-backed dictionary builds fast.
		be = pickBackend(len(faults), nPats, false)
	}
	if be != BackendCPT {
		be = BackendParallel
	}
	span.SetAttr("backend", be.String())
	var err error
	if be == BackendCPT {
		err = e.detailCPT(ctx, faults, pats, dr, prog, span)
	} else {
		err = e.detailParallel(ctx, faults, pats, dr, prog, span)
	}
	if err != nil {
		reg.Counter("fault.engine.cancelled").Inc()
		return nil, err
	}
	reg.Counter("fault.sim.detail_runs").Inc()
	reg.Counter("fault.sim.patterns").Add(int64(nPats))
	return dr, nil
}

// detailParallel shards the fault axis in dynamic chunks (the PPSFP
// discipline of runParallel): each chunk owns its rows outright, and
// per block one FaultMask call yields a whole 64-pattern row word.
func (e *Engine) detailParallel(ctx context.Context, faults []Fault, pats *PackedPatterns, dr *DetailResult, prog *telemetry.Progress, span *telemetry.Span) error {
	reg := e.reg
	nb := pats.NumBlocks()
	if prog != nil {
		prog.AddTotal(int64(len(faults)))
	}
	loop := func(ps *ParallelSim, lo, hi int) error {
		for bi := 0; bi < nb; bi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			words, kb := pats.Block(bi)
			k := ps.LoadPackedBlock(words, kb)
			mask := blockMask(k)
			for fi := lo; fi < hi; fi++ {
				if det := ps.FaultMask(faults[fi]) & mask; det != 0 {
					dr.Detect[fi][bi] = det
				}
			}
			reg.Counter("fault.sim.blocks").Inc()
		}
		return nil
	}
	w := e.workers
	if w > len(faults) {
		w = len(faults)
	}
	span.SetAttr("workers", strconv.Itoa(w))
	if w <= 1 {
		ps := e.sim(0)
		err := loop(ps, 0, len(faults))
		masks, evals := ps.TakeCounts()
		reg.Counter("fault.sim.faultmasks").Add(masks)
		reg.Counter("fault.sim.events").Add(evals)
		if err != nil {
			return err
		}
		if prog != nil {
			prog.Add(int64(len(faults)))
		}
		return nil
	}
	reg.Gauge("fault.sim.workers").Set(int64(w))
	reg.Counter("fault.engine.runs").Inc()
	chunk := chunkSize(len(faults), w)
	var cursor atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			ps := e.sim(wi)
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= len(faults) {
					break
				}
				hi := lo + chunk
				if hi > len(faults) {
					hi = len(faults)
				}
				if err := loop(ps, lo, hi); err != nil {
					errs[wi] = err
					break
				}
				if prog != nil {
					prog.Add(int64(hi - lo))
				}
			}
			masks, evals := ps.TakeCounts()
			reg.Counter("fault.sim.faultmasks").Add(masks)
			reg.Counter("fault.sim.events").Add(evals)
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// detailCPT runs the cpt block loop: each block's observability
// words are traced once, with the stem flips sharded across workers,
// and every fault's row word for the block is graded in O(fanin).
func (e *Engine) detailCPT(ctx context.Context, faults []Fault, pats *PackedPatterns, dr *DetailResult, prog *telemetry.Progress, span *telemetry.Span) error {
	return e.cptBlocks(ctx, pats, prog, span, func(bi int, good []uint64) {
		for fi, f := range faults {
			dr.Detect[fi][bi] = e.cptMask(f, good)
		}
	})
}
