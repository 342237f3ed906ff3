package fault

import (
	"fmt"

	"dft/internal/sim"
)

// PackedPatterns is a pattern set stored in PPSFP form: one 64-pattern
// block per slice of words, one word per view input. Packing once and
// sharing the blocks across workers replaces the per-worker, per-chunk
// repacking the engine used to do, and exhaustive sets build directly
// in packed form without ever materializing 2^N scalar vectors.
type PackedPatterns struct {
	nInputs int
	n       int        // patterns appended so far
	blocks  [][]uint64 // each len nInputs; block b holds patterns [64b, 64b+64)
}

// NewPackedPatterns returns an empty set over nInputs view inputs.
func NewPackedPatterns(nInputs int) *PackedPatterns {
	return &PackedPatterns{nInputs: nInputs}
}

// NumInputs returns the pattern width (view inputs per pattern).
func (pp *PackedPatterns) NumInputs() int { return pp.nInputs }

// NumPatterns returns the number of patterns in the set.
func (pp *PackedPatterns) NumPatterns() int { return pp.n }

// NumBlocks returns the number of 64-pattern blocks.
func (pp *PackedPatterns) NumBlocks() int { return len(pp.blocks) }

// Block returns block b's words and its pattern count (64 except for a
// trailing partial block).
func (pp *PackedPatterns) Block(b int) (words []uint64, k int) {
	k = pp.n - b*64
	if k > 64 {
		k = 64
	}
	return pp.blocks[b], k
}

// from returns the blocks of the set from block b on, as a set that
// shares their words.
func (pp *PackedPatterns) from(b int) *PackedPatterns {
	return &PackedPatterns{nInputs: pp.nInputs, n: pp.n - b*64, blocks: pp.blocks[b:]}
}

// grow ensures a block exists for pattern index i and returns it.
func (pp *PackedPatterns) grow(i int) []uint64 {
	for len(pp.blocks) <= i/64 {
		pp.blocks = append(pp.blocks, make([]uint64, pp.nInputs))
	}
	return pp.blocks[i/64]
}

// Append adds one pattern (len nInputs) to the set.
func (pp *PackedPatterns) Append(p []bool) {
	if len(p) != pp.nInputs {
		panic(fmt.Sprintf("fault: pattern has %d values for %d inputs", len(p), pp.nInputs))
	}
	w := pp.grow(pp.n)
	bit := uint64(1) << uint(pp.n%64)
	for i, b := range p {
		if b {
			w[i] |= bit
		}
	}
	pp.n++
}

// At unpacks pattern i into a fresh scalar vector.
func (pp *PackedPatterns) At(i int) []bool {
	if i < 0 || i >= pp.n {
		panic(fmt.Sprintf("fault: pattern %d out of range [0,%d)", i, pp.n))
	}
	w := pp.blocks[i/64]
	bit := uint(i % 64)
	p := make([]bool, pp.nInputs)
	for j := range p {
		p[j] = w[j]>>bit&1 == 1
	}
	return p
}

// Patterns materializes the whole set as scalar vectors, for the
// serial backend, which still walks patterns one at a time.
func (pp *PackedPatterns) Patterns() [][]bool {
	out := make([][]bool, pp.n)
	for i := range out {
		out[i] = pp.At(i)
	}
	return out
}

// AppendBlock appends one pre-packed 64-pattern block (k patterns,
// len(words) == nInputs). The set must be 64-aligned — decoders
// rebuilding a packed set block-by-block are the intended caller.
func (pp *PackedPatterns) AppendBlock(words []uint64, k int) {
	if len(words) != pp.nInputs {
		panic(fmt.Sprintf("fault: block has %d words for %d inputs", len(words), pp.nInputs))
	}
	if pp.n%64 != 0 {
		panic(fmt.Sprintf("fault: AppendBlock on unaligned set (%d patterns)", pp.n))
	}
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("fault: block pattern count %d out of range [0,64]", k))
	}
	pp.blocks = append(pp.blocks, append([]uint64(nil), words...))
	pp.n += k
}

// AppendEnum appends the full exhaustive enumeration over the free
// input positions — pattern x (for x in [0, 2^len(free))) assigns bit
// b of x to input free[b] — with the fixedOnes positions held at 1 and
// every other input at 0. The pattern order matches a scalar count
// from 0 to 2^n-1, and when the set is 64-aligned the blocks are
// synthesized directly from periodic bit masks without touching
// individual patterns.
func (pp *PackedPatterns) AppendEnum(free []int, fixedOnes []int) {
	total := uint64(1) << uint(len(free))
	if pp.n%64 == 0 {
		onesMask := func(k int) uint64 {
			if k >= 64 {
				return ^uint64(0)
			}
			return 1<<uint(k) - 1
		}
		for base := uint64(0); base < total; base += 64 {
			w := pp.grow(pp.n)
			k := sim.ExhaustiveBlock(w, free, base)
			m := onesMask(k)
			for _, pos := range fixedOnes {
				w[pos] |= m
			}
			pp.n += k
		}
		return
	}
	// Unaligned start: fall back to per-pattern appends so the global
	// pattern order stays identical to the scalar enumeration.
	p := make([]bool, pp.nInputs)
	for _, pos := range fixedOnes {
		p[pos] = true
	}
	for x := uint64(0); x < total; x++ {
		for b, pos := range free {
			p[pos] = x>>uint(b)&1 == 1
		}
		pp.Append(p)
	}
}

// PackPatternSet packs an existing scalar pattern set (each pattern
// nInputs wide) once for the whole run.
func PackPatternSet(nInputs int, patterns [][]bool) *PackedPatterns {
	pp := NewPackedPatterns(nInputs)
	for bi := 0; bi < len(patterns); bi += 64 {
		end := bi + 64
		if end > len(patterns) {
			end = len(patterns)
		}
		w := pp.grow(bi)
		pp.n += sim.PackPatternsInto(patterns[bi:end], w)
	}
	return pp
}

// ExhaustivePatterns builds the complete 2^nInputs enumeration in
// packed form — 64× smaller than the scalar equivalent and built
// block-at-a-time from periodic masks.
func ExhaustivePatterns(nInputs int) *PackedPatterns {
	pp := NewPackedPatterns(nInputs)
	free := make([]int, nInputs)
	for i := range free {
		free[i] = i
	}
	pp.AppendEnum(free, nil)
	return pp
}
