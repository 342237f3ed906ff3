package fault

import (
	"context"
	"math/bits"
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
// pattern blocks. It runs the same backend block loops as RunPacked;
// only the consumer differs, ORing each detect word into the fault's
// row and never reporting a fault done. Dropping therefore never
// applies — a dictionary needs the whole column, not just the first
// hit — so Options.Drop is ignored. Every backend writes only its own
// faults' row words (PPSFP shards the fault axis; CPT and serial grade
// the rows from one goroutine), so the rows are byte-identical at
// every worker count. An explicit BackendSerial runs serially; Auto
// resolves as RunPacked would with dropping off, except that a job
// small enough for serial runs on PPSFP, and the span records the
// backend that ran.
func (e *Engine) RunDetail(ctx context.Context, faults []Fault, pats *PackedPatterns) (*DetailResult, error) {
	nPats := pats.NumPatterns()
	dr := &DetailResult{Faults: faults, NumPats: nPats, Detect: make([][]uint64, len(faults))}
	words := detailWords(nPats)
	backing := make([]uint64, words*len(faults))
	for fi := range dr.Detect {
		dr.Detect[fi] = backing[fi*words : (fi+1)*words : (fi+1)*words]
	}
	err := e.grade(ctx, faults, pats, true, func(fi, bi int, det uint64) bool {
		dr.Detect[fi][bi] |= det
		return false
	})
	if err != nil {
		return nil, err
	}
	return dr, nil
}
