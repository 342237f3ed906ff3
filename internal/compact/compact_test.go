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
		want := `compact: mode "` + s + `" was removed; use "full" (cube merging, then replay)`
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

// Static compaction over deterministic cubes: merging must fire, the
// compacted set must cover at least the original detections, and the
// paranoia re-grade in the pipeline must hold.
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
		reg := telemetry.NewRegistry()
		kept, cubes, st, err := Tests(context.Background(), c, view, faults, gen.Tests,
			Options{Mode: ModeFull, Seed: 3, Metrics: reg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(kept) != len(cubes) {
			t.Fatalf("%s: %d patterns but %d cubes", tc.name, len(kept), len(cubes))
		}
		if st.MergeAttempts == 0 {
			t.Fatalf("%s: static pass did not attempt any merges", tc.name)
		}
		if st.DetectedOut < st.DetectedIn {
			t.Fatalf("%s: compaction lost coverage %d -> %d", tc.name, st.DetectedIn, st.DetectedOut)
		}
		snap := reg.Snapshot()
		if snap.Counters["compact.merge.attempts"] == 0 {
			t.Fatalf("%s: merge counters not flushed: %v", tc.name, snap.Counters)
		}
	}
}

// Same seed, same input -> byte-identical compacted set, whether the
// source is injected or derived from Seed; a different seed may fill
// differently.
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
	inj := run(Options{Mode: ModeFull, Rand: rand.New(rand.NewSource(9 + 2)), Metrics: telemetry.NewRegistry()})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different compacted sets")
	}
	if !reflect.DeepEqual(a, inj) {
		t.Fatal("injected source diverged from Seed-derived source")
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
	fopt := fault.Options{View: fault.View{Inputs: view.Inputs, Outputs: view.Outputs}}
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
