package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortRun runs a workload with the shortest window: one pass, or two
// when traced.
func shortRun(t *testing.T, name string, seed int64, traced bool) (*result, workload) {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), w, runOptions{workload: name, seed: seed, minJobs: 1, traced: traced})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res, w
}

// TestEveryMetricPrinted runs every workload untraced and traced and
// checks that each prints exactly the metrics BENCHMARK.json names,
// each with its declared unit.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, _ := shortRun(t, wl.Name, 1, traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptResultFailsCheck shows each workload's output check
// catches a wrong result: one flipped detect bit, one dropped pattern,
// one altered report.
func TestCorruptResultFailsCheck(t *testing.T) {
	ctx := context.Background()
	g := &grade{}
	if _, err := g.setup(ctx, 1); err != nil {
		t.Fatal(err)
	}
	j := g.jobs[0]
	r := g.run(ctx, 0, j, nil)
	if errs := g.check(ctx, []*record{r}); len(errs) != 0 {
		t.Fatalf("clean grade result fails its check: %v", errs)
	}
	o := r.out.(*gradeOut)
	o.detected[j.sample[0]] = !o.detected[j.sample[0]]
	if errs := g.check(ctx, []*record{r}); len(errs) == 0 {
		t.Error("grade check accepts a flipped detect bit")
	}

	tg := &testgen{}
	if _, err := tg.setup(ctx, 1); err != nil {
		t.Fatal(err)
	}
	r = tg.run(ctx, 0, tg.jobs[0], nil)
	if errs := tg.check(ctx, []*record{r}); len(errs) != 0 {
		t.Fatalf("clean testgen result fails its check: %v", errs)
	}
	a := r.out.(*atpgOut)
	a.patterns = a.patterns[1:]
	if errs := tg.check(ctx, []*record{r}); len(errs) == 0 {
		t.Error("testgen check accepts a pattern set with a pattern dropped")
	}

	s := &serviceLoad{}
	if _, err := s.setup(ctx, 1); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	r = s.do(ctx, 0, s.requests(0, 0)[0], nil, nil)
	if errs := s.check(ctx, []*record{r}); len(errs) != 0 || r.err != nil {
		t.Fatalf("clean service result fails its check: %v %v", r.err, errs)
	}
	r.out.(*svcOut).results["detected"] = -1.0
	if errs := s.check(ctx, []*record{r}); len(errs) == 0 {
		t.Error("service check accepts an altered report")
	}
}

// TestDeterministic runs each workload twice on one seed: the quality
// counts and the per-layer counters that depend on the corpus alone
// must repeat exactly.
func TestDeterministic(t *testing.T) {
	exact := map[string][]string{
		"grade":   {"fault.grades", "fault.backend_runs.parallel", "fault.backend_runs.cpt", "fault.backend_runs.faultparallel"},
		"testgen": {"atpg.backtracks", "atpg.faults_targeted", "atpg.faults_aborted", "atpg.faults_untestable", "compact.patterns_dropped", "advise.overhead_pct", "advise.iterations"},
		"service": {"service.cache_hit_ratio", "service.dict_hit_ratio", "service.coalesced", "service.rejected"},
	}
	for name, keys := range exact {
		var runs [2]metrics
		for i := range runs {
			plain, _ := shortRun(t, name, 7, false)
			traced, _ := shortRun(t, name, 7, true)
			runs[i] = traced.Metrics
			runs[i]["patterns"] = plain.Metrics["patterns"]
			runs[i]["coverage_pct"] = plain.Metrics["coverage_pct"]
		}
		for _, k := range append(keys, "patterns", "coverage_pct") {
			if a, b := runs[0][k].Value, runs[1][k].Value; a != b {
				t.Errorf("%s: %s = %v, then %v on the same seed", name, k, a, b)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
