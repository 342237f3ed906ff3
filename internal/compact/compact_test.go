package compact

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

func randomPatterns(width, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, width)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "reverse": ModeReverse, "full": ModeFull} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("ParseMode(%q).String() = %q", s, got.String())
		}
	}
	// The removed modes are refused with the one that replaces them.
	for _, s := range []string{"static", "dynamic"} {
		want := `compact: mode "` + s + `" was removed; use "full" (replay, then set cover)`
		if _, err := ParseMode(s); err == nil || err.Error() != want {
			t.Fatalf("ParseMode(%q) error %v, want %q", s, err, want)
		}
	}
	if _, err := ParseMode("ful"); err == nil || !strings.Contains(err.Error(), `did you mean "full"`) {
		t.Fatalf("no did-you-mean for 'ful': %v", err)
	}
	if _, err := ParseMode("zzzzzzzz"); err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("far-off name should get no suggestion: %v", err)
	}
}

// Reverse compaction of a redundant random set must shrink hard and
// detect exactly the same faults, with stats and counters to match.
func TestPatternsReverse(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	pats := randomPatterns(len(c.PIs), 512, 7)
	want, err := fault.Simulate(context.Background(), c, faults, pats, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	kept, st, err := Patterns(context.Background(), c, view, faults, pats, Options{Mode: ModeReverse, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.PatternsIn != 512 || st.PatternsOut != len(kept) || st.ReplayPasses < 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Ratio < 4 {
		t.Fatalf("random-set reduction %.2fx, want >= 4x", st.Ratio)
	}
	got, err := fault.Simulate(context.Background(), c, faults, kept, fault.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Detected, want.Detected) {
		t.Fatal("kept set does not detect the original fault set")
	}
	if st.DetectedOut != want.NumCaught || st.DetectedIn != want.NumCaught {
		t.Fatalf("stats detected %d/%d, simulate says %d", st.DetectedIn, st.DetectedOut, want.NumCaught)
	}
	snap := reg.Snapshot()
	if snap.Counters["compact.patterns.dropped"] != int64(512-len(kept)) {
		t.Fatalf("dropped counter %d, want %d", snap.Counters["compact.patterns.dropped"], 512-len(kept))
	}
	if snap.Timers["compact.run"].Count == 0 {
		t.Fatal("compact.run span did not observe its timer")
	}
	if p := snap.Progress["compact.patterns.progress"]; p.Done == 0 || p.Done != p.Total {
		t.Fatalf("progress incomplete: %+v", p)
	}
}

// Full compaction over deterministic cubes: the kept patterns stay
// aligned with their cubes, detect exactly what the filled input
// detects, and number no more than reverse mode keeps.
func TestTestsStatic(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
	}{
		{"alu74181", circuits.ALU74181()},
		{"mult5", circuits.ArrayMultiplier(5)},
	} {
		c := tc.c
		view := atpg.PrimaryView(c)
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		gen := atpg.Generate(c, view, faults, atpg.Config{RandomSeed: 3})
		opt := Options{Mode: ModeFull, Seed: 3, Metrics: telemetry.NewRegistry()}
		kept, cubes, st, err := Tests(context.Background(), c, view, faults, gen.Tests, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(kept) != len(cubes) {
			t.Fatalf("%s: %d patterns but %d cubes", tc.name, len(kept), len(cubes))
		}
		for i, cube := range cubes {
			for j, v := range cube.Values {
				if v != logic.X && kept[i][j] != (v == logic.One) {
					t.Fatalf("%s: pattern %d is not a fill of its cube %s", tc.name, i, cube)
				}
			}
		}
		rng := opt.rng()
		filled := make([][]bool, len(gen.Tests))
		for i, cube := range gen.Tests {
			filled[i] = cube.Fill(func() bool { return rng.Intn(2) == 1 })
		}
		want, err := fault.Simulate(context.Background(), c, faults, filled, fault.Options{View: view})
		if err != nil {
			t.Fatal(err)
		}
		got, err := fault.Simulate(context.Background(), c, faults, kept, fault.Options{View: view})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Detected, want.Detected) || st.DetectedOut != want.NumCaught {
			t.Fatalf("%s: kept set detects %d faults, filled input %d (stats %+v)", tc.name, got.NumCaught, want.NumCaught, st)
		}
		opt.Mode = ModeReverse
		keptR, _, _, err := Tests(context.Background(), c, view, faults, gen.Tests, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > len(keptR) {
			t.Fatalf("%s: full kept %d patterns, reverse %d", tc.name, len(kept), len(keptR))
		}
	}
}

// Same seed, same input -> byte-identical compacted set.
func TestStaticSeedDeterminism(t *testing.T) {
	c := circuits.ALU74181()
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	gen := atpg.Generate(c, view, faults, atpg.Config{RandomSeed: 11})
	run := func(opt Options) [][]bool {
		kept, _, _, err := Tests(context.Background(), c, view, faults, gen.Tests, opt)
		if err != nil {
			t.Fatal(err)
		}
		return kept
	}
	a := run(Options{Mode: ModeFull, Seed: 9, Metrics: telemetry.NewRegistry()})
	b := run(Options{Mode: ModeFull, Seed: 9, Metrics: telemetry.NewRegistry()})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different compacted sets")
	}
}

// Result compacts in place with Tests staying aligned to Patterns, and
// ModeOff is a strict no-op.
func TestResultInPlace(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	gen := atpg.Generate(c, view, faults, atpg.Config{RandomFirst: 256, RandomSeed: 1})
	before := len(gen.Patterns)
	st, err := Result(context.Background(), c, view, faults, gen, Options{Mode: ModeFull, Seed: 1, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Patterns) != st.PatternsOut || len(gen.Tests) != len(gen.Patterns) {
		t.Fatalf("result not updated in place: %d patterns, %d tests, stats %+v", len(gen.Patterns), len(gen.Tests), st)
	}
	if st.PatternsIn != before || st.PatternsOut > before {
		t.Fatalf("stats: %+v (before=%d)", st, before)
	}

	off := &atpg.GenerateResult{Patterns: randomPatterns(len(c.PIs), 8, 2)}
	stOff, err := Result(context.Background(), c, view, faults, off, Options{Metrics: telemetry.NewRegistry()})
	if err != nil || stOff.PatternsOut != 8 || stOff.Ratio != 1 || len(off.Patterns) != 8 {
		t.Fatalf("ModeOff not a no-op: %+v err=%v", stOff, err)
	}
}

// Worker count must not change the compacted set.
func TestWorkerInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	view := atpg.PrimaryView(c)
	faults := fault.Universe(c)
	pats := randomPatterns(len(c.PIs), 256, 13)
	var base [][]bool
	for _, w := range []int{1, 4} {
		kept, _, err := Patterns(context.Background(), c, view, faults, pats, Options{Mode: ModeReverse, Workers: w, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = kept
			continue
		}
		if !reflect.DeepEqual(base, kept) {
			t.Fatalf("workers=%d changed the compacted set", w)
		}
	}
}

// Compaction must honor the view: a full-scan compaction runs over the
// scan-view inputs and preserves scan-view coverage.
func TestScanViewCompaction(t *testing.T) {
	c := circuits.Counter(6)
	view := atpg.FullScanView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	pats := randomPatterns(len(view.Inputs), 256, 19)
	fopt := fault.Options{View: view}
	want, err := fault.Simulate(context.Background(), c, faults, pats, fopt)
	if err != nil {
		t.Fatal(err)
	}
	kept, st, err := Patterns(context.Background(), c, view, faults, pats, Options{Mode: ModeReverse, Metrics: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fault.Simulate(context.Background(), c, faults, kept, fopt)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCaught != want.NumCaught || st.DetectedOut != want.NumCaught {
		t.Fatalf("scan view: kept catches %d, want %d (stats %+v)", got.NumCaught, want.NumCaught, st)
	}
}

func TestCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	view := atpg.PrimaryView(c)
	faults := fault.Universe(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Patterns(ctx, c, view, faults, randomPatterns(len(c.PIs), 64, 1), Options{Mode: ModeReverse, Metrics: telemetry.NewRegistry()}); err == nil {
		t.Fatal("want cancellation error")
	}
}

// Full mode must never return more patterns than reverse mode on the
// same input: the set cover is kept only when strictly smaller than
// the replay passes' set.
func TestFullNeverWorseThanReverse(t *testing.T) {
	c := circuits.Cascade74181(2)
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	kept := map[Mode]int{}
	for _, mode := range []Mode{ModeReverse, ModeFull} {
		gen := atpg.Generate(c, view, faults, atpg.Config{RandomSeed: 2, Workers: 1, Metrics: telemetry.NewRegistry()})
		st, err := Result(context.Background(), c, view, faults, gen, Options{Mode: mode, Seed: 2, Metrics: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if st.DetectedOut != st.DetectedIn {
			t.Fatalf("%v: detected %d -> %d", mode, st.DetectedIn, st.DetectedOut)
		}
		kept[mode] = len(gen.Patterns)
	}
	if kept[ModeFull] > kept[ModeReverse] {
		t.Fatalf("full kept %d patterns, reverse %d", kept[ModeFull], kept[ModeReverse])
	}
}

// Set cover on a hand-built matrix where replay cannot shrink but the
// cover can: p0 {1,2,3}, p1 {4,5,6}, p2 {1,4}, p3 {2,5}, p4 {3,6}.
// Reverse credits keep p2-p4; the cover keeps p0 and p1. The second
// matrix has no essential column, so greedy takes p0 first and the
// last-to-first walk must drop it once p1 and p2 are in.
func TestCoverBeatsCredits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		columns [][]int // rows each column detects
		credits []int   // columns reverse Credits keeps
		cover   []int   // columns cover keeps
	}{
		{"pairs", [][]int{{0, 1, 2}, {3, 4, 5}, {0, 3}, {1, 4}, {2, 5}}, []int{2, 3, 4}, []int{0, 1}},
		{"redundant", [][]int{{0, 1, 2, 3}, {0, 1, 4}, {2, 3, 5}, {4}, {5}}, []int{1, 2, 3, 4}, []int{1, 2}},
	} {
		dr := &fault.DetailResult{Faults: make([]fault.Fault, 6), NumPats: len(tc.columns), Detect: make([][]uint64, 6)}
		for r := range dr.Detect {
			dr.Detect[r] = make([]uint64, 1)
		}
		for p, rows := range tc.columns {
			for _, r := range rows {
				dr.Detect[r][0] |= 1 << uint(p)
			}
		}
		members := func(keep []uint64) []int {
			var ps []int
			for p := range tc.columns {
				if has(keep, p) {
					ps = append(ps, p)
				}
			}
			return ps
		}
		credits, _ := columns(dr.NumPats, dr.Credits(nil, true))
		if got := members(credits); !reflect.DeepEqual(got, tc.credits) {
			t.Errorf("%s: reverse credits keep %v, want %v", tc.name, got, tc.credits)
		}
		keep, kept := cover(dr)
		if got := members(keep); !reflect.DeepEqual(got, tc.cover) || kept != len(tc.cover) {
			t.Errorf("%s: cover keeps %v (size %d), want %v", tc.name, got, kept, tc.cover)
		}
	}
}

// Full mode on an ATPG set keeps a subset of the input's patterns, in
// input order, with fault-by-fault identical detection and strictly
// fewer patterns than reverse mode.
func TestFullCoverSubset(t *testing.T) {
	c := circuits.ArrayMultiplier(8)
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	gen := func() *atpg.GenerateResult {
		return atpg.Generate(c, view, faults, atpg.Config{RandomSeed: 1, Workers: 1, Metrics: telemetry.NewRegistry()})
	}
	input := gen()
	want, err := fault.Simulate(context.Background(), c, faults, input.Patterns, fault.Options{View: view})
	if err != nil {
		t.Fatal(err)
	}
	kept := map[Mode]int{}
	for _, mode := range []Mode{ModeReverse, ModeFull} {
		res := gen()
		if _, err := Result(context.Background(), c, view, faults, res, Options{Mode: mode, Seed: 1, Workers: 1, Metrics: telemetry.NewRegistry()}); err != nil {
			t.Fatal(err)
		}
		kept[mode] = len(res.Patterns)
		if mode != ModeFull {
			continue
		}
		next := 0
		for i, p := range res.Patterns {
			for next < len(input.Patterns) && !reflect.DeepEqual(input.Patterns[next], p) {
				next++
			}
			if next == len(input.Patterns) {
				t.Fatalf("kept pattern %d is not an input pattern in input order", i)
			}
			if res.Tests[i].String() != input.Tests[next].String() {
				t.Fatalf("kept pattern %d lost its cube", i)
			}
			next++
		}
		got, err := fault.Simulate(context.Background(), c, faults, res.Patterns, fault.Options{View: view})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Detected, want.Detected) {
			t.Fatalf("full detects %d faults, input %d", got.NumCaught, want.NumCaught)
		}
	}
	if kept[ModeFull] >= kept[ModeReverse] {
		t.Fatalf("full kept %d patterns, reverse %d", kept[ModeFull], kept[ModeReverse])
	}
}
