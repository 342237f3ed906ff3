package compact

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// Options configures a compaction run.
type Options struct {
	// Mode selects the passes; ModeOff makes every entry point a no-op.
	Mode Mode
	// Workers is the fault-simulation sharding degree for re-grading
	// and replay, with fault.Options.Workers semantics (0 = GOMAXPROCS).
	// Results are identical for every worker count.
	Workers int
	// Seed derives the private X-fill source, so a fixed seed
	// reproduces the compacted set exactly.
	Seed int64
	// Metrics receives the run's telemetry; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
}

func (o Options) rng() *rand.Rand { return rand.New(rand.NewSource(o.Seed + 2)) }

// Stats reports what a compaction run did, for the dft.run-report/v1
// document and the dftc one-line summary.
type Stats struct {
	PatternsIn    int     `json:"patterns_in"`
	PatternsOut   int     `json:"patterns_out"`
	Ratio         float64 `json:"compact_ratio"` // PatternsIn / PatternsOut
	ReplayPasses  int     `json:"replay_passes"`
	MergeAttempts int     `json:"merge_attempts,omitempty"`
	MergeHits     int     `json:"merge_hits,omitempty"`
	// DetectedIn/Out count faults detected by the original and
	// compacted sets; compaction never lets Out drop below In.
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

// Patterns compacts a raw fully-specified pattern set: reverse-order
// replay only, since without cubes there is nothing to merge. The kept
// patterns (in original relative order) detect the same collapsed
// fault set as the input.
func Patterns(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	patterns [][]bool, opt Options) ([][]bool, *Stats, error) {
	pats, _, st, err := run(ctx, c, view, faults, patterns, nil, nil, opt)
	return pats, st, err
}

// Tests compacts a set of partially-specified cubes: static merging
// (under ModeFull) then X-fill and replay. Returns the compacted
// fully-specified patterns, the surviving cubes (merged where merging
// happened), and the run's stats.
func Tests(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	tests []atpg.Test, opt Options) ([][]bool, []atpg.Test, *Stats, error) {
	rng := opt.rng()
	patterns := make([][]bool, len(tests))
	for i, t := range tests {
		patterns[i] = fillCube(t, rng)
	}
	return run(ctx, c, view, faults, patterns, tests, rng, opt)
}

// Result compacts an ATPG run in place: res.Patterns and res.Tests are
// replaced by the compacted set. Detection bookkeeping (res.Detected,
// Coverage) is untouched — compaction never changes what is detected.
func Result(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	res *atpg.GenerateResult, opt Options) (*Stats, error) {
	cubes := res.Tests
	if len(cubes) != len(res.Patterns) {
		cubes = nil // misaligned caller-built result: replay only
	}
	pats, kept, st, err := run(ctx, c, view, faults, res.Patterns, cubes, opt.rng(), opt)
	if err != nil {
		return nil, err
	}
	res.Patterns = pats
	if kept != nil {
		res.Tests = kept
	}
	return st, nil
}

// run is the shared pipeline: static merge (cubes present and
// ModeFull), then alternating-direction replay until no shrink.
// cubes, when non-nil, must be index-aligned with patterns; the
// returned cube slice stays aligned with the returned patterns. rng
// X-fills merged cubes, so it may be nil when cubes is.
func run(ctx context.Context, c *logic.Circuit, view atpg.View, faults []fault.Fault,
	patterns [][]bool, cubes []atpg.Test, rng *rand.Rand, opt Options) ([][]bool, []atpg.Test, *Stats, error) {
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

	// replay keeps only the patterns that first-detect some fault,
	// alternating the walk direction until a pass stops shrinking. The
	// first, reverse pass is one dropping grade of the set walked
	// last-to-first: a fault's first detector there is its last one in
	// the set. The survivors then get one detail grade, and every later
	// pass is a Credits scan of that matrix, not a re-simulation. Each
	// pass that continues strictly shrinks the set, so the loop ends.
	replay := func(patterns [][]bool, cubes []atpg.Test) ([][]bool, []atpg.Test, []bool, error) {
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
		if kept == n {
			return patterns, cubes, res.Detected, nil
		}
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
		if keep != nil {
			patterns, cubes = pick(keep, patterns, cubes)
		}
		return patterns, cubes, res.Detected, nil
	}

	// Baseline grading: the contract is stated against what the input
	// set actually detects, so static repair has exact targets.
	origPatterns, origCubes := patterns, cubes
	var d0 *fault.Result
	if opt.Mode == ModeFull && len(cubes) == len(patterns) {
		var err error
		d0, err = eng.Run(ctx, faults, patterns)
		if err != nil {
			return nil, nil, nil, err
		}
		st.DetectedIn = d0.NumCaught
		patterns, cubes, err = mergeCubes(ctx, eng, faults, patterns, cubes, d0, st, rng, opt)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	patterns, cubes, detected, err := replay(patterns, cubes)
	if err != nil {
		return nil, nil, nil, err
	}
	if d0 != nil {
		// Dense cubes merge poorly and repair re-appends patterns, so the
		// merged set can replay larger than the input does. Replay the
		// input too and keep it when strictly smaller: full mode never
		// returns more patterns than reverse mode.
		plain, plainCubes, plainDetected, err := replay(origPatterns, origCubes)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(plain) < len(patterns) {
			patterns, cubes, detected = plain, plainCubes, plainDetected
		}
	}
	for _, d := range detected {
		if d {
			st.DetectedOut++
		}
	}
	if d0 != nil {
		// The repair pass re-appended a detector for every lost fault, so
		// a gap here is a bug in the engine or the theorem — fail loudly.
		for fi, d := range d0.Detected {
			if d && !detected[fi] {
				return nil, nil, nil, fmt.Errorf("compact: fault %s lost during compaction", faults[fi].Name(c))
			}
		}
	} else {
		st.DetectedIn = st.DetectedOut
	}
	st.PatternsOut = len(patterns)
	st.CoverageIn = float64(st.DetectedIn) / float64(len(faults))
	st.CoverageOut = float64(st.DetectedOut) / float64(len(faults))
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
		if p >= 0 && keep[p/64]>>uint(p%64)&1 == 0 {
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
		if keep[p/64]>>uint(p%64)&1 == 1 {
			kept = append(kept, patterns[p])
			if cubes != nil {
				keptCubes = append(keptCubes, cubes[p])
			}
		}
	}
	return kept, keptCubes
}

// mergeCubes is the static pass: greedy first-fit merging of
// compatible cubes in essential-first (descending care-count) order,
// X-fill of the merged cubes through rng, then a
// repair step that re-appends an original detector for every fault the
// refilled set lost — so the set entering replay detects at least what
// the input did.
func mergeCubes(ctx context.Context, eng *fault.Engine, faults []fault.Fault, patterns [][]bool, cubes []atpg.Test,
	d0 *fault.Result, st *Stats, rng *rand.Rand, opt Options) ([][]bool, []atpg.Test, error) {
	reg := telemetry.OrDefault(opt.Metrics)
	packed := make([]sim.PackedCube, len(cubes))
	for i, t := range cubes {
		packed[i] = sim.PackCube(t.Values)
	}
	order := make([]int, len(cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return packed[order[a]].CareCount() > packed[order[b]].CareCount()
	})
	var groups []sim.PackedCube
	attempts, hits := 0, 0
	for _, i := range order {
		placed := false
		for g := range groups {
			attempts++
			if groups[g].Compatible(packed[i]) {
				groups[g].Merge(packed[i])
				hits++
				placed = true
				break
			}
		}
		if !placed {
			// Copy: Merge mutates in place and packed[i] backs the input cube.
			nw := len(packed[i].Care)
			g := sim.PackedCube{Care: make([]uint64, nw), Val: make([]uint64, nw)}
			g.Merge(packed[i])
			groups = append(groups, g)
		}
	}
	st.MergeAttempts, st.MergeHits = attempts, hits
	reg.Counter("compact.merge.attempts").Add(int64(attempts))
	reg.Counter("compact.merge.hits").Add(int64(hits))

	width := len(cubes[0].Values)
	mergedCubes := make([]atpg.Test, len(groups))
	mergedPats := make([][]bool, len(groups))
	for g := range groups {
		mergedCubes[g] = atpg.Test{Values: groups[g].Unpack(width)}
		mergedPats[g] = fillCube(mergedCubes[g], rng)
	}

	// Repair: the refill can lose chance detections the original fill
	// had, so re-append the original first detector of every lost fault.
	after, err := eng.Run(ctx, faults, mergedPats)
	if err != nil {
		return nil, nil, err
	}
	readded := make(map[int]bool)
	for fi, was := range d0.Detected {
		if !was || after.Detected[fi] {
			continue
		}
		p := d0.DetectedBy[fi]
		if readded[p] {
			continue
		}
		readded[p] = true
		mergedPats = append(mergedPats, patterns[p])
		mergedCubes = append(mergedCubes, cubes[p])
	}
	return mergedPats, mergedCubes, nil
}

// fillCube specifies a cube's X positions from the injected source.
func fillCube(t atpg.Test, rng *rand.Rand) []bool {
	full := make([]bool, len(t.Values))
	for i, v := range t.Values {
		switch v {
		case logic.One:
			full[i] = true
		case logic.Zero:
			full[i] = false
		default:
			full[i] = rng.Intn(2) == 1
		}
	}
	return full
}
