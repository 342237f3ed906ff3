package fault

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dft/internal/circuits"
	"dft/internal/telemetry"
)

// gradeDigests pins a grade-shaped dropping run: a 2,000-gate random
// netlist with 64 inputs graded by 384 patterns (six blocks) on the
// Auto backend, once through Simulate and once block by block through a
// Session. The digests were recorded on the kernel that propagated all
// 64 pattern lanes of every fault, so any change to which pattern first
// detects a fault, or to a block's useful mask, moves them.
var gradeDigests = map[string]string{
	"simulate": "4f4f239b6227f9a41af53f7269828e41673e4ddb0b7d0670ce2018ca56060bab",
	"session":  "c16606429cb1641de7c6b2fb0b9a2c3cc4838172869024240b4325ffb8bc9f93",
}

// TestGradeDropDigest pins Detected, DetectedBy and NumCaught of an
// Auto DropOn 384-pattern grade, and the useful masks of a six-block
// Session over the same patterns, at 1 and 4 workers.
func TestGradeDropDigest(t *testing.T) {
	c := circuits.RandomCircuit(rand.New(rand.NewSource(1)), 64, 2000, 32, 4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 384, 101)
	for _, w := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		res, err := Simulate(context.Background(), c, faults, pats, Options{Workers: w, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Timer("fault.sim.engine").Stats().Count; got != 1 {
			t.Fatalf("workers=%d: Auto ran %d parallel grades, want 1", w, got)
		}
		h := sha256.New()
		for i, d := range res.Detected {
			fmt.Fprintf(h, "%v %d\n", d, res.DetectedBy[i])
		}
		fmt.Fprintln(h, res.NumCaught)
		checkGradeDigest(t, "simulate", w, hex.EncodeToString(h.Sum(nil)))

		s := NewEngine(c, Options{Workers: w, Metrics: reg}).NewSession(faults, make([]bool, len(faults)))
		detected := make([]bool, len(faults))
		h = sha256.New()
		for b := 0; b < 6; b++ {
			fmt.Fprintf(h, "%016x\n", s.ApplyBlock(pats[b*64:(b+1)*64], detected))
		}
		fmt.Fprintln(h, s.Caught(), s.Remaining())
		checkGradeDigest(t, "session", w, hex.EncodeToString(h.Sum(nil)))
		if s.Caught() != res.NumCaught || !reflect.DeepEqual(detected, res.Detected) {
			t.Fatalf("workers=%d: session caught %d, Simulate %d", w, s.Caught(), res.NumCaught)
		}
	}
}

func checkGradeDigest(t *testing.T, key string, workers int, got string) {
	t.Helper()
	if want := gradeDigests[key]; got != want {
		t.Errorf("%s workers=%d: digest %s, want %s", key, workers, got, want)
	}
}

// noDropDigests pins the grades that return every detection on the
// same 2,000-gate netlist as gradeDigests: 192- and 256-pattern
// DropOff grades (Auto, which runs cpt, and explicit parallel share
// one digest), the RunDetail rows of 200 patterns (three full blocks
// and one of eight) and of 130 patterns (two full blocks and one of
// two), on both backends, and the 8-pattern DropOn re-grade Auto sends
// to cpt. The first three and the re-grade were recorded on the kernel
// that propagated every lane of a stem flip and of a DropOff fault to
// the end of its cone; dropoff256 and detail130 on the kernel that
// flipped each stem once per block.
var noDropDigests = map[string]string{
	"dropoff":    "72ee66c9e8451745926d3e3cbfd3f979b050868edeff2b51acfe26f9b7e96dd0",
	"dropoff256": "cc847203701e52f3d19aadf8d46179b3d451d515d00a96cbe85f38a605b80eca",
	"detail":     "1c14780268a7a4721570f780e0b180283a7446917b83580776e7c6b54d63a828",
	"detail130":  "32bc2337cddfb302c3f866cd3c733c822a786d1d4391dab61a0720723d6c317a",
	"regrade":    "2f29fb4846287f6b9aab6b295026b8db0b1f15391a8ebe70bd7c7b9cc449e349",
}

// TestGradeNoDropDigest pins the detect-only kernel paths: cpt stem
// flips (one block at a time and in groups of two to four blocks) and
// the DropOff PPSFP block loop, through Simulate and RunDetail, at 1
// and 4 workers.
func TestGradeNoDropDigest(t *testing.T) {
	c := circuits.RandomCircuit(rand.New(rand.NewSource(1)), 64, 2000, 32, 4)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 256, 202)
	resultDigest := func(res *Result) string {
		h := sha256.New()
		for i, d := range res.Detected {
			fmt.Fprintf(h, "%v %d\n", d, res.DetectedBy[i])
		}
		fmt.Fprintln(h, res.NumCaught)
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, w := range []int{1, 4} {
		for _, be := range []Backend{Auto, BackendParallel} {
			opts := Options{Backend: be, Workers: w, Drop: DropOff}
			for key, n := range map[string]int{"dropoff": 192, "dropoff256": 256} {
				reg := telemetry.NewRegistry()
				opts.Metrics = reg
				res, err := Simulate(context.Background(), c, faults, pats[:n], opts)
				if err != nil {
					t.Fatal(err)
				}
				if be == Auto && reg.Timer("fault.sim.cpt").Stats().Count != 1 {
					t.Fatalf("workers=%d: Auto %d-pattern DropOff grade did not run on cpt", w, n)
				}
				checkNoDropDigest(t, key, be, w, resultDigest(res))
			}
			for key, n := range map[string]int{"detail": 200, "detail130": 130} {
				reg := telemetry.NewRegistry()
				opts.Metrics = reg
				dr, err := NewEngine(c, opts).RunDetail(context.Background(), faults, PackPatternSet(len(c.PIs), pats[:n]))
				if err != nil {
					t.Fatal(err)
				}
				if be == Auto && reg.Counter("fault.cpt.chain_obs").Value() == 0 {
					t.Fatalf("workers=%d: Auto %d-pattern detail grade did not run on cpt", w, n)
				}
				h := sha256.New()
				for _, row := range dr.Detect {
					fmt.Fprintf(h, "%016x\n", row)
				}
				checkNoDropDigest(t, key, be, w, hex.EncodeToString(h.Sum(nil)))
			}
		}
		reg := telemetry.NewRegistry()
		res, err := Simulate(context.Background(), c, faults, pats[:8], Options{Workers: w, Drop: DropOn, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if reg.Timer("fault.sim.cpt").Stats().Count != 1 {
			t.Fatalf("workers=%d: Auto 8-pattern re-grade did not run on cpt", w)
		}
		checkNoDropDigest(t, "regrade", Auto, w, resultDigest(res))
	}
}

func checkNoDropDigest(t *testing.T, key string, be Backend, workers int, got string) {
	t.Helper()
	if want := noDropDigests[key]; got != want {
		t.Errorf("%s %v workers=%d: digest %s, want %s", key, be, workers, got, want)
	}
}

// TestDropsPerBlockWorkerInvariant requires fault.sim.drops_per_block
// to observe each graded block once, with the faults it dropped, so its
// count, sum and buckets are the same at every worker count. The
// first-detect kernel's faulty-machine work is worker-invariant too:
// fault.sim.events less one good-machine pass per chunk block
// (fault.sim.blocks) does not move with the worker count.
func TestDropsPerBlockWorkerInvariant(t *testing.T) {
	c := circuits.ArrayMultiplier(8)
	faults := CollapseEquiv(c, Universe(c)).Reps
	pats := enginePatterns(len(c.PIs), 384, 7)
	var want telemetry.HistStat
	var wantFaulty int64
	for _, w := range []int{1, 2, 4} {
		reg := telemetry.NewRegistry()
		if _, err := Simulate(context.Background(), c, faults, pats,
			Options{Backend: BackendParallel, Workers: w, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		got := reg.Histogram("fault.sim.drops_per_block").Stats()
		faulty := reg.Counter("fault.sim.events").Value() - reg.Counter("fault.sim.blocks").Value()*int64(len(c.Order))
		if w == 1 {
			want, wantFaulty = got, faulty
			if got.Count != int64((len(pats)+63)/64) {
				t.Fatalf("workers=1: %d samples for %d blocks", got.Count, (len(pats)+63)/64)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: drops_per_block %+v, want %+v (workers=1)", w, got, want)
		}
		if faulty != wantFaulty {
			t.Errorf("workers=%d: %d faulty-machine evaluations, want %d (workers=1)", w, faulty, wantFaulty)
		}
	}
}
