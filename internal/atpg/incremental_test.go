// The event-driven PODEM oracles live in the external test package so
// they can use fuzzdiff, which imports atpg.
package atpg_test

import (
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/telemetry"
)

// oracleBacktracks bounds each search small enough that some faults
// abort, so all three verdicts occur.
const oracleBacktracks = 32

// checkIncremental requires event-driven PODEM to match the
// whole-circuit reference search on a seed-generated circuit: the same
// net values and D-frontier after every decision and backtrack, and
// the same verdict and cube, for every collapsed fault and for a few
// two-site faults, under the primary and the full-scan view. It
// returns how many searches ended in each verdict.
func checkIncremental(t *testing.T, seed int64) map[error]int {
	t.Helper()
	c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	sets := make([]atpg.MultiFault, 0, len(faults)+8)
	for _, f := range faults {
		sets = append(sets, atpg.MultiFault{f})
	}
	for i := 0; i < 8 && i < len(faults)/2; i++ {
		sets = append(sets, atpg.MultiFault{faults[i], faults[len(faults)-1-i]})
	}
	reg := telemetry.NewRegistry()
	verdicts := map[error]int{}
	for _, v := range []struct {
		name string
		view atpg.View
	}{{"primary", atpg.PrimaryView(c)}, {"full-scan", atpg.FullScanView(c)}} {
		for _, fs := range sets {
			want, wantErr, mismatch := atpg.PodemReference(c, v.view, fs, oracleBacktracks)
			if mismatch != "" {
				t.Fatalf("seed %d, %s view, fault %v: %s", seed, v.name, fs, mismatch)
			}
			got, err := atpg.PodemMulti(c, v.view, fs, atpg.PodemConfig{MaxBacktracks: oracleBacktracks, Metrics: reg})
			if err != wantErr || got.String() != want.String() {
				t.Fatalf("seed %d, %s view, fault %v: got (%q, %v), reference (%q, %v)",
					seed, v.name, fs, got, err, want, wantErr)
			}
			verdicts[err]++
		}
	}
	return verdicts
}

func TestPodemIncrementalMatchesReference(t *testing.T) {
	verdicts := map[error]int{}
	for seed := int64(1); seed <= 50; seed++ {
		for err, n := range checkIncremental(t, seed) {
			verdicts[err] += n
		}
	}
	for _, err := range []error{nil, atpg.ErrUntestable, atpg.ErrAborted} {
		if verdicts[err] == 0 {
			t.Errorf("no search ended with verdict %v", err)
		}
	}
	t.Logf("verdicts: %d tests, %d untestable, %d aborted",
		verdicts[nil], verdicts[atpg.ErrUntestable], verdicts[atpg.ErrAborted])
}

// FuzzPodemIncremental drives the event-driven PODEM oracle from a
// seed-generated circuit.
//
// Run: go test -fuzz=FuzzPodemIncremental -fuzztime=10s ./internal/atpg
func FuzzPodemIncremental(f *testing.F) {
	for _, seed := range []int64{1, 2, 5, 11, 42, -8, 116, 142} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkIncremental(t, seed) })
}

// TestPodemEvalsCounter checks atpg.podem.evals: the same count at one
// and two fault-simulation workers, and on mult8 fewer gate
// evaluations than a whole-circuit pass per implication would make.
func TestPodemEvalsCounter(t *testing.T) {
	c := circuits.ArrayMultiplier(8)
	view := atpg.PrimaryView(c)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	counts := func(workers int) (evals, implications int64) {
		reg := telemetry.NewRegistry()
		atpg.Generate(c, view, faults, atpg.Config{RandomSeed: 1, Workers: workers, Metrics: reg})
		snap := reg.Snapshot()
		return snap.Counters["atpg.podem.evals"], snap.Counters["atpg.podem.implications"]
	}
	e1, i1 := counts(1)
	e2, i2 := counts(2)
	if e1 != e2 || i1 != i2 {
		t.Fatalf("evals/implications %d/%d at 1 worker, %d/%d at 2", e1, i1, e2, i2)
	}
	if e1 <= 0 {
		t.Fatal("no gate evaluations counted")
	}
	if full := i1 * int64(len(c.Order)); e1 >= full {
		t.Fatalf("evals %d, not below implications × gates = %d", e1, full)
	}
	t.Logf("mult8: %d evals over %d implications (%.1f%% of whole-circuit passes)",
		e1, i1, 100*float64(e1)/float64(i1*int64(len(c.Order))))
}
