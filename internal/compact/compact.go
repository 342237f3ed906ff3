package compact

import (
	"context"
	"math/bits"
	"math/rand"
	"strconv"

	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Options configures a compaction run.
type Options struct {
	// Mode selects the passes; ModeOff makes every entry point a no-op.
	Mode Mode
	// Workers is the fault-simulation sharding degree for replay, with
	// fault.Options.Workers semantics (0 = GOMAXPROCS).
	// Results are identical for every worker count.
	Workers int
	// Seed derives the X-fill source Tests fills cubes from, so a
	// fixed seed reproduces the compacted set exactly.
	Seed int64
	// Metrics receives the run's telemetry; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed + 2)) }

// Stats reports what a compaction run did, for the dft.run-report/v1
// document and the dftc one-line summary.
type Stats struct {
	PatternsIn   int     `json:"patterns_in"`
	PatternsOut  int     `json:"patterns_out"`
	Ratio        float64 `json:"compact_ratio"` // PatternsIn / PatternsOut
	ReplayPasses int     `json:"replay_passes"`
	// DetectedIn/Out count faults detected by the original and
	// compacted sets; compaction keeps them equal.
	DetectedIn  int     `json:"detected_in"`
	DetectedOut int     `json:"detected_out"`
	CoverageIn  float64 `json:"coverage_in"`
	CoverageOut float64 `json:"coverage_out"`
}

func (s *Stats) finish() {
	switch {
	case s.PatternsIn == 0:
		s.Ratio = 1
	case s.PatternsOut == 0:
		s.Ratio = float64(s.PatternsIn)
	default:
		s.Ratio = float64(s.PatternsIn) / float64(s.PatternsOut)
	}
}

// Patterns compacts a raw fully-specified pattern set. The kept
// patterns (in original relative order) detect the same collapsed
// fault set as the input.
func Patterns(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	patterns [][]bool, opt Options) ([][]bool, *Stats, error) {
	pats, _, st, err := run(ctx, c, view, faults, patterns, nil, opt)
	return pats, st, err
}

// Tests compacts a set of partially-specified cubes: X-fill through
// the seeded source, then the shared pipeline. Returns the compacted
// fully-specified patterns, the cubes they were filled from, and the
// run's stats.
func Tests(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	tests []atpg.Test, opt Options) ([][]bool, []atpg.Test, *Stats, error) {
	rng := opt.rng()
	x := func() bool { return rng.Intn(2) == 1 }
	patterns := make([][]bool, len(tests))
	for i, t := range tests {
		patterns[i] = t.Fill(x)
	}
	return run(ctx, c, view, faults, patterns, tests, opt)
}

// Result compacts an ATPG run in place: res.Patterns and res.Tests are
// replaced by the compacted set. Detection bookkeeping (res.Detected,
// Coverage) is untouched — compaction never changes what is detected.
func Result(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	res *atpg.GenerateResult, opt Options) (*Stats, error) {
	cubes := res.Tests
	if len(cubes) != len(res.Patterns) {
		cubes = nil // misaligned caller-built result: patterns only
	}
	pats, kept, st, err := run(ctx, c, view, faults, res.Patterns, cubes, opt)
	if err != nil {
		return nil, err
	}
	res.Patterns = pats
	if kept != nil {
		res.Tests = kept
	}
	return st, nil
}

// run is the shared pipeline. Replay keeps only the patterns that
// first-detect some fault, alternating the walk direction until a pass
// stops shrinking. The first, reverse pass is one dropping grade of the
// set walked last-to-first: a fault's first detector there is its last
// one in the set. The survivors then get one detail grade, and every
// later pass is a Credits scan of that matrix, not a re-simulation.
// Each pass that continues strictly shrinks the set, so the loop ends.
// ModeFull builds the matrix even when the first pass keeps every
// pattern, and keeps its set cover instead when that is strictly
// smaller. cubes, when non-nil, must be index-aligned with patterns;
// the returned cube slice stays aligned with the returned patterns.
func run(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	patterns [][]bool, cubes []atpg.Test, opt Options) ([][]bool, []atpg.Test, *Stats, error) {
	st := &Stats{PatternsIn: len(patterns), PatternsOut: len(patterns)}
	if !opt.Mode.Enabled() || len(patterns) == 0 || len(faults) == 0 {
		st.finish()
		return patterns, cubes, st, nil
	}
	reg := telemetry.OrDefault(opt.Metrics)
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "compact.run")
	defer span.End()
	span.SetAttr("mode", opt.Mode.String())
	span.SetAttr("patterns", strconv.Itoa(len(patterns)))

	eng := fault.NewEngine(c, fault.Options{Workers: opt.Workers, View: view, Metrics: reg})
	prog := reg.Progress("compact.patterns.progress")

	n := len(patterns)
	prog.AddTotal(int64(n))
	rev := make([][]bool, n)
	for i, p := range patterns {
		rev[n-1-i] = p
	}
	res, err := eng.Run(ctx, faults, rev)
	if err != nil {
		return nil, nil, nil, err
	}
	prog.Add(int64(n))
	st.ReplayPasses++
	var last []int
	var hit []fault.Fault
	for fi, p := range res.DetectedBy {
		if p >= 0 {
			last = append(last, n-1-p)
			hit = append(hit, faults[fi])
		}
	}
	keep, kept := columns(n, last)
	patterns, cubes = pick(keep, patterns, cubes)
	if kept < n || opt.Mode == ModeFull {
		dr, err := eng.RunDetail(ctx, hit, fault.PackPatternSet(len(view.Inputs), patterns))
		if err != nil {
			return nil, nil, nil, err
		}
		keep = nil // every survivor
		for reverse := false; ; reverse = !reverse {
			next, nextKept := columns(len(patterns), dr.Credits(keep, reverse))
			prog.AddTotal(int64(kept))
			prog.Add(int64(kept))
			st.ReplayPasses++
			if nextKept == kept {
				break
			}
			keep, kept = next, nextKept
		}
		if opt.Mode == ModeFull {
			cov, covKept := cover(dr)
			useCover := covKept < kept
			span.SetAttr("cover", strconv.FormatBool(useCover))
			if useCover {
				keep = cov
			}
		}
		if keep != nil {
			patterns, cubes = pick(keep, patterns, cubes)
		}
	}
	st.PatternsOut = len(patterns)
	st.DetectedIn, st.DetectedOut = res.NumCaught, res.NumCaught
	st.CoverageIn = float64(st.DetectedIn) / float64(len(faults))
	st.CoverageOut = st.CoverageIn
	st.finish()
	if d := st.PatternsIn - st.PatternsOut; d > 0 {
		reg.Counter("compact.patterns.dropped").Add(int64(d))
	}
	span.SetAttr("kept", strconv.Itoa(st.PatternsOut))
	span.SetAttr("passes", strconv.Itoa(st.ReplayPasses))
	return patterns, cubes, st, nil
}

// columns packs the credited patterns of an n-pattern set into a
// keep mask and counts them; a negative credit (an undetected fault)
// marks nothing.
func columns(n int, credits []int) ([]uint64, int) {
	keep := make([]uint64, (n+63)/64)
	kept := 0
	for _, p := range credits {
		if p >= 0 && !has(keep, p) {
			keep[p/64] |= 1 << uint(p%64)
			kept++
		}
	}
	return keep, kept
}

// pick returns the patterns whose column is set in keep, in their
// original order, with their cubes when cubes is non-nil.
func pick(keep []uint64, patterns [][]bool, cubes []atpg.Test) ([][]bool, []atpg.Test) {
	kept := patterns[:0:0]
	var keptCubes []atpg.Test
	for p := range patterns {
		if has(keep, p) {
			kept = append(kept, patterns[p])
			if cubes != nil {
				keptCubes = append(keptCubes, cubes[p])
			}
		}
	}
	return kept, keptCubes
}

// cover is the set-cover pass over a detail matrix whose rows are the
// detected faults and whose columns are patterns. It takes every
// essential column (some row's only detector), then, while a row is
// uncovered, the column that detects the most uncovered rows, lowest
// index on ties. Last, it walks the taken columns from the highest
// index down and drops each one whose rows the other taken columns all
// detect.
// It returns the keep mask and its size; the kept columns detect
// every row some column detects.
func cover(dr *fault.DetailResult) ([]uint64, int) {
	keep := make([]uint64, (dr.NumPats+63)/64)
	gain := make([]int, dr.NumPats) // uncovered rows per column
	for _, row := range dr.Detect {
		eachColumn(row, func(p int) { gain[p]++ })
	}
	covered := make([]bool, len(dr.Detect))
	kept := 0
	take := func(p int) {
		keep[p/64] |= 1 << uint(p%64)
		kept++
		for r, row := range dr.Detect {
			if !covered[r] && has(row, p) {
				covered[r] = true
				eachColumn(row, func(q int) { gain[q]-- })
			}
		}
	}
	for r, row := range dr.Detect {
		if only := onlyColumn(row); only >= 0 && !covered[r] {
			take(only)
		}
	}
	for {
		best := -1
		for p, g := range gain {
			if g > 0 && (best < 0 || g > gain[best]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		take(best)
	}

	// count[r] is the number of taken columns that detect row r.
	count := make([]int, len(dr.Detect))
	for r, row := range dr.Detect {
		for w, word := range row {
			count[r] += bits.OnesCount64(word & keep[w])
		}
	}
	for p := dr.NumPats - 1; p >= 0; p-- {
		if !has(keep, p) {
			continue
		}
		redundant := true
		for r, row := range dr.Detect {
			if has(row, p) && count[r] < 2 {
				redundant = false
				break
			}
		}
		if !redundant {
			continue
		}
		keep[p/64] &^= 1 << uint(p%64)
		kept--
		for r, row := range dr.Detect {
			if has(row, p) {
				count[r]--
			}
		}
	}
	return keep, kept
}

// has reports whether column p is set in a packed row or mask.
func has(row []uint64, p int) bool { return row[p/64]>>uint(p%64)&1 == 1 }

// eachColumn calls f with every column set in a packed row, in order.
func eachColumn(row []uint64, f func(p int)) {
	for w, word := range row {
		for ; word != 0; word &= word - 1 {
			f(w*64 + bits.TrailingZeros64(word))
		}
	}
}

// onlyColumn returns the one column set in a packed row, or -1 when
// the row has none or several.
func onlyColumn(row []uint64) int {
	only := -1
	for w, word := range row {
		if word == 0 {
			continue
		}
		if only >= 0 || word&(word-1) != 0 {
			return -1
		}
		only = w*64 + bits.TrailingZeros64(word)
	}
	return only
}
