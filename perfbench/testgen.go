package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"dft/internal/advise"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// testgenJob is one `dftc atpg -compact full` or `dftc advise` run.
type testgenJob struct {
	key  string
	kind string // "atpg" or "advise"
	net  *netlist
	scan bool
	// seed derives each pass's generation or advice seed: how much work
	// a seed makes varies, and a run then averages over its passes.
	seed   int64
	origin *logic.Circuit // the generated circuit, for advise's function check
}

type atpgOut struct {
	patterns   [][]bool
	rawCover   float64
	targets    int
	untestable int
}

// testgen runs test generation and DFT advice as a user runs them, one
// job at a time: PODEM search, compaction and advise's probe loop do
// most of the work, and the fault engine sees only small drop-mode
// session blocks.
type testgen struct {
	jobs []*testgenJob
}

func (t *testgen) clients() int { return 1 }
func (t *testgen) close()       {}

func (t *testgen) setup(ctx context.Context, seed int64) ([]*netlist, error) {
	t.jobs = nil
	type item struct {
		name string
		kind string
		c    *logic.Circuit
		scan bool
	}
	items := []item{
		{"alu74181x2", "atpg", circuits.Cascade74181(2), false},
		{"alu74181x3", "atpg", circuits.Cascade74181(3), false},
		{"mult6", "atpg", circuits.ArrayMultiplier(6), false},
		{"mult8", "atpg", circuits.ArrayMultiplier(8), false},
		{"mult10", "atpg", circuits.ArrayMultiplier(10), false},
		{"hardcore8", "atpg", circuits.Hardcore(8), true},
		{"hardcore16", "atpg", circuits.Hardcore(16), true},
		{"hardcore32", "atpg", circuits.Hardcore(32), true},
	}
	// Small random netlists carry redundant faults, whose PODEM
	// searches end in backtrack-bounded proofs of untestability.
	for i := 0; i < 4; i++ {
		items = append(items, item{fmt.Sprintf("redundant%d", i), "atpg",
			circuits.RandomCircuit(rng(corpusVersion, 3, int64(i)), 12, 80, 6, 4), false})
	}
	items = append(items,
		item{"hardcore16", "advise", circuits.Hardcore(16), false},
		item{"hardcore32", "advise", circuits.Hardcore(32), false},
		item{"counter16", "advise", circuits.Counter(16), false},
		item{"counter32", "advise", circuits.Counter(32), false},
	)
	var nets []*netlist
	for i, it := range items {
		n, err := newNetlist(it.name, it.c)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
		t.jobs = append(t.jobs, &testgenJob{
			key:    it.kind + "/" + it.name,
			kind:   it.kind,
			net:    n,
			scan:   it.scan,
			seed:   derive(seed, 4, int64(i)),
			origin: it.c,
		})
	}
	// Warm-up: the smallest job of each kind.
	for _, j := range []*testgenJob{t.jobs[0], t.jobs[len(t.jobs)-4]} {
		if r := t.run(ctx, 0, j, nil); r.err != nil {
			return nil, r.err
		}
	}
	return nets, nil
}

func (t *testgen) pass(ctx context.Context, p int, tr *tracer) ([]*record, error) {
	recs := make([]*record, 0, len(t.jobs))
	for _, j := range t.jobs {
		recs = append(recs, t.run(ctx, p, j, tr))
	}
	return recs, nil
}

func (t *testgen) run(ctx context.Context, p int, j *testgenJob, tr *tracer) *record {
	rec := &record{pass: p, key: fmt.Sprintf("%s@%d", j.key, p), kind: j.kind}
	seed := derive(j.seed, int64(p))
	reg := telemetry.NewRegistry()
	root := tr.root(rec.key, "core.job")
	if root != nil {
		drainCompiles()
	}
	start := time.Now()
	rec.out, rec.err = func() (any, error) {
		sp := root.child("logic.parse")
		d, err := j.net.load()
		sp.end()
		if err != nil {
			return nil, err
		}
		if j.kind == "advise" {
			sp = root.child("advise.Run")
			plan, err := advise.Run(ctx, d.Circuit, advise.Options{
				Seed:    uint64(seed),
				Workers: runtime.GOMAXPROCS(0),
				Metrics: reg,
			})
			sp.end()
			sp.graftRegistry(reg)
			return plan, err
		}
		if j.scan {
			if err := d.ApplyScan(core.StyleLSSD); err != nil {
				return nil, err
			}
		}
		sp = root.child("core.GenerateContext")
		ts, err := d.GenerateContext(ctx, core.GenerateOptions{
			CompactMode: compact.ModeFull,
			Seed:        seed,
			Workers:     runtime.GOMAXPROCS(0),
			Metrics:     reg,
		})
		sp.end()
		sp.graftRegistry(reg)
		if err != nil {
			return nil, err
		}
		return &atpgOut{patterns: ts.Patterns, rawCover: ts.RawCover, targets: ts.TargetN, untestable: ts.Untestable}, nil
	}()
	rec.dur = time.Since(start)
	root.end()
	finishRecord(rec, reg, root)
	if rec.err == nil {
		enc, err := json.Marshal(rec.out)
		if o, ok := rec.out.(*atpgOut); ok {
			enc, err = json.Marshal([]any{o.patterns, o.rawCover, o.targets, o.untestable})
		}
		if err != nil {
			rec.err = err
			return rec
		}
		rec.digest = fmt.Sprintf("%x", sha256.Sum256(enc))
	}
	return rec
}

// check re-grades every emitted pattern set with an independent
// fault.Simulate, which must reproduce the reported coverage, and
// checks every advise plan: coverage never falls from step to step and
// the instrumented netlist computes the original function.
func (t *testgen) check(ctx context.Context, recs []*record) []error {
	byKey := map[string]*testgenJob{}
	for _, j := range t.jobs {
		byKey[j.key] = j
	}
	var errs []error
	for key, r := range firstRuns(recs, &errs) {
		name, _, _ := strings.Cut(key, "@")
		j := byKey[name]
		var err error
		switch o := r.out.(type) {
		case *atpgOut:
			err = checkPatterns(ctx, j, o)
		case *advise.Plan:
			err = checkPlan(j.origin, o)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key, err))
		}
	}
	return errs
}

func checkPatterns(ctx context.Context, j *testgenJob, o *atpgOut) error {
	d, err := j.net.load()
	if err != nil {
		return err
	}
	if j.scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return err
		}
	}
	faults := d.Faults()
	view := d.View()
	res, err := fault.Simulate(ctx, d.Circuit, faults, o.patterns, fault.Options{
		Backend: fault.BackendSerial,
		Workers: 1,
		View:    fault.View{Inputs: view.Inputs, Outputs: view.Outputs},
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	if len(faults) != o.targets {
		return fmt.Errorf("targeted %d faults, the design has %d", o.targets, len(faults))
	}
	if want := int(math.Round(o.rawCover * float64(o.targets))); res.NumCaught != want {
		return fmt.Errorf("reported %d detected faults, its %d patterns detect %d", want, len(o.patterns), res.NumCaught)
	}
	return nil
}

// checkPlan checks the properties fuzzdiff.CheckAdvise checks on an
// advise plan: coverage is non-decreasing step to step, and with every
// added input at 0 the instrumented netlist computes the original's
// outputs and next state.
func checkPlan(orig *logic.Circuit, plan *advise.Plan) error {
	prev := plan.Baseline
	for i, s := range plan.Steps {
		if s.Coverage < prev || s.Delta < 0 {
			return fmt.Errorf("step %d lowers coverage from %v to %v", i, prev, s.Coverage)
		}
		prev = s.Coverage
	}
	if plan.Coverage != prev {
		return fmt.Errorf("plan coverage %v, last step %v", plan.Coverage, prev)
	}
	if plan.OverheadGates <= 0 || len(plan.Steps) == 0 {
		return fmt.Errorf("plan applies no intervention")
	}
	mod, err := logic.ParseBenchString("advised", plan.Bench)
	if err != nil {
		return fmt.Errorf("plan netlist: %w", err)
	}
	if len(mod.POs) < len(orig.POs) {
		return fmt.Errorf("plan netlist has %d outputs, original %d", len(mod.POs), len(orig.POs))
	}
	r := rng(int64(len(plan.Bench)), 5)
	for trial := 0; trial < 64; trial++ {
		in := map[string]bool{}
		for _, pi := range orig.PIs {
			in[orig.NameOf(pi)] = r.Intn(2) == 1
		}
		state := map[string]bool{}
		for _, ff := range orig.DFFs {
			state[orig.NameOf(ff)] = r.Intn(2) == 1
		}
		vo, vm := evalNamed(orig, in, state), evalNamed(mod, in, state)
		for i, po := range orig.POs {
			if vo[po] != vm[mod.POs[i]] {
				return fmt.Errorf("output %s differs after instrumentation", orig.NameOf(po))
			}
		}
		for _, ff := range orig.DFFs {
			mff, ok := mod.NetByName(orig.NameOf(ff))
			if !ok {
				return fmt.Errorf("storage element %s missing from the plan netlist", orig.NameOf(ff))
			}
			if vo[orig.Gates[ff].Fanin[0]] != vm[mod.Gates[mff].Fanin[0]] {
				return fmt.Errorf("next state of %s differs after instrumentation", orig.NameOf(ff))
			}
		}
	}
	return nil
}

// evalNamed evaluates c with inputs and state given by net name; nets
// not named (inputs the plan added) stay at 0.
func evalNamed(c *logic.Circuit, in, state map[string]bool) []bool {
	pi := make([]bool, len(c.PIs))
	for i, n := range c.PIs {
		pi[i] = in[c.NameOf(n)]
	}
	st := make([]bool, len(c.DFFs))
	for i, n := range c.DFFs {
		st[i] = state[c.NameOf(n)]
	}
	return sim.Eval(c, pi, st)
}

// quality counts the compacted patterns and the detected share of the
// targeted faults over pass 0's ATPG jobs.
func (t *testgen) quality(recs []*record) (int, float64) {
	pats := 0
	var caught, targets float64
	for _, r := range recs {
		if o, ok := r.out.(*atpgOut); ok && r.pass == 0 && r.err == nil {
			pats += len(o.patterns)
			caught += math.Round(o.rawCover * float64(o.targets))
			targets += float64(o.targets)
		}
	}
	return pats, 100 * ratio(caught, targets)
}

func (t *testgen) layers(recs []*record, m metrics) {
	var added, gates float64
	for _, r := range recs {
		if plan, ok := r.out.(*advise.Plan); ok && r.err == nil && r.pass == recs[0].pass {
			added += float64(plan.OverheadGates)
		}
	}
	for _, j := range t.jobs {
		if j.kind == "advise" {
			gates += float64(j.net.gates)
		}
	}
	adviseMs, _ := spanStats(recs, "advise.Run")
	m.set("advise.ms", "ms", adviseMs/float64(passes(recs)))
	m.set("advise.overhead_pct", "%", 100*ratio(added, gates))
}
