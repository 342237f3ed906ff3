package fault

import (
	"context"
	"fmt"
	"math/bits"

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

// Credits returns, for every fault, the first detecting pattern among
// the keep columns in walk order — the lowest-indexed one, or the
// highest-indexed one when reverse is set — or -1 when no kept pattern
// detects it. keep is a packed column mask laid out like a row; nil
// keeps every column. The patterns that earn a credit detect exactly
// what the kept columns detect, which makes one call a whole
// reverse- or forward-order compaction pass over the matrix.
func (dr *DetailResult) Credits(keep []uint64, reverse bool) []int {
	credits := make([]int, len(dr.Detect))
	for fi, row := range dr.Detect {
		credits[fi] = -1
		for i := range row {
			w := i
			if reverse {
				w = len(row) - 1 - i
			}
			word := row[w]
			if keep != nil {
				word &= keep[w]
			}
			if word == 0 {
				continue
			}
			if reverse {
				credits[fi] = w*64 + 63 - bits.LeadingZeros64(word)
			} else {
				credits[fi] = w*64 + bits.TrailingZeros64(word)
			}
			break
		}
	}
	return credits
}

// Result folds the rows into the classic first-detection Result, the
// form the cross-oracle compares against an independent grade.
func (dr *DetailResult) Result() *Result {
	res := newResult(dr.Faults, dr.NumPats)
	res.DetectedBy = dr.Credits(nil, false)
	for fi, p := range res.DetectedBy {
		if p >= 0 {
			res.Detected[fi] = true
			res.NumCaught++
		}
	}
	return res
}

// RunDetail is the engine's detail-grading path: exact per-pattern
// detect rows for every fault, honoring context cancellation between
// pattern blocks. Dropping never applies — a dictionary needs the
// whole column, not just the first hit — so Options.Drop is ignored.
// Two scheduler shapes cover the packed backends — the PPSFP path
// shards the fault axis (each worker owns whole rows), while the CPT
// path shards each block's reconvergent stems and grades the rows from
// one goroutine — so all writes are disjoint and the rows are
// byte-identical at every worker count. The serial backend has no
// packed per-pattern form; it falls back to the PPSFP path, which
// computes the same rows, and the span records the backend that
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
	// A detail grade is always a no-drop full grading, so Auto resolves
	// as Run would with dropping off: large jobs land on CPT (one
	// observability pass per block, O(fanin) per fault), which is what
	// makes engine-backed dictionary builds fast.
	be, auto := e.backend(len(faults), nPats, false)
	if be != BackendCPT {
		be = BackendParallel
	}
	ctx, span := e.startSpan(ctx, "fault.sim.detail", be, auto, len(faults), nPats)
	defer span.End()
	var err error
	if be == BackendCPT {
		err = e.cptBlocks(ctx, pats, span, func(bi int, good []uint64) {
			for fi, f := range faults {
				dr.Detect[fi][bi] = e.cptMask(f, good)
			}
		})
	} else {
		err = e.detailParallel(ctx, span, faults, pats, dr)
	}
	if err != nil {
		reg.Counter("fault.engine.cancelled").Inc()
		return nil, err
	}
	reg.Counter("fault.sim.detail_runs").Inc()
	reg.Counter("fault.sim.patterns").Add(int64(nPats))
	return dr, nil
}

// detailParallel shards the fault axis like runParallel: each chunk
// owns its rows outright, and per block one FaultMask call yields a
// whole 64-pattern row word.
func (e *Engine) detailParallel(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns, dr *DetailResult) error {
	nb := pats.NumBlocks()
	return e.shardFaults(ctx, span, len(faults), func(ps *ParallelSim, lo, hi int) (int64, error) {
		for bi := 0; bi < nb; bi++ {
			if err := ctx.Err(); err != nil {
				return int64(bi), err
			}
			words, kb := pats.Block(bi)
			k := ps.LoadPackedBlock(words, kb)
			mask := blockMask(k)
			for fi := lo; fi < hi; fi++ {
				if det := ps.FaultMask(faults[fi]) & mask; det != 0 {
					dr.Detect[fi][bi] = det
				}
			}
		}
		return int64(nb), nil
	})
}
