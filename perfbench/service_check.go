package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/service"
	"dft/internal/telemetry"
)

// check recomputes every new request's result with direct library
// calls — the report's results must match apart from timing — checks
// that a repeat returned its original's report byte for byte, and that
// every diagnosed fault lies in the candidate class it was looked up in.
func (s *serviceLoad) check(ctx context.Context, recs []*record) []error {
	var mu sync.Mutex
	var errs []error
	work := make(chan *record)
	var wg sync.WaitGroup
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				if err := s.verify(ctx, r); err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s job (pass %d): %w", r.kind, r.pass, err))
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range recs {
		if r.err == nil {
			work <- r
		}
	}
	close(work)
	wg.Wait()
	return errs
}

func (s *serviceLoad) verify(ctx context.Context, r *record) error {
	o := r.out.(*svcOut)
	if o.orig != nil {
		if !o.view.Cached {
			return fmt.Errorf("repeat was not served from the result cache")
		}
		if o.orig.err != nil || r.digest != o.orig.digest {
			return fmt.Errorf("repeat returned another report than its original")
		}
		return nil
	}
	want, err := s.direct(ctx, o.req)
	if err != nil {
		return fmt.Errorf("direct call: %w", err)
	}
	got := o.results
	for k, v := range digestPlan(normalize(want)) {
		if !reflect.DeepEqual(got[k], v) {
			return fmt.Errorf("result %q = %v, direct library call gives %v", k, got[k], v)
		}
	}
	if o.req.Kind == service.KindDiagnose && got["hit"] != true {
		return fmt.Errorf("injected fault %s is not in its candidate class", o.req.Options.Inject)
	}
	return nil
}

// checkedResults lists, per job kind, the report results the check
// compares with a direct library call, plus those the metrics read.
var checkedResults = map[service.Kind][]string{
	service.KindFaultSim: {"coverage", "detected", "targets", "kept_patterns"},
	service.KindATPG:     {"patterns", "coverage", "raw_coverage", "untestable", "aborted", "targets"},
	service.KindDiagnose: {"candidates", "class_size", "hit", "observed_fails", "dict_faults", "dict_patterns", "dict_bytes", "dict_cached"},
	service.KindAdvise:   {"baseline", "coverage", "steps", "overhead_gates", "stop_reason", "plan"},
}

// keepResults reduces a report's results to the checked ones, with an
// advise plan replaced by its digest, so that what a run holds per job
// stays small and its memory does not grow with its speed.
func keepResults(kind service.Kind, res map[string]any) map[string]any {
	out := map[string]any{}
	for _, k := range checkedResults[kind] {
		if v, ok := res[k]; ok {
			out[k] = v
		}
	}
	return digestPlan(normalize(out))
}

// digestPlan replaces m's "plan" entry, if any, by the digest of its
// JSON encoding.
func digestPlan(m map[string]any) map[string]any {
	if p, ok := m["plan"]; ok {
		enc, _ := json.Marshal(p) // decoded JSON always encodes
		m["plan"] = fmt.Sprintf("%x", sha256.Sum256(enc))
	}
	return m
}

// normalize round-trips v through JSON, so results built in memory
// compare equal to results decoded from a report.
func normalize(v map[string]any) map[string]any {
	enc, _ := json.Marshal(v) // maps of numbers, strings and slices always encode
	var out map[string]any
	_ = json.Unmarshal(enc, &out)
	return out
}

// direct computes a request's results the way dftc would, straight
// from the library; the keys are the report results it must match.
func (s *serviceLoad) direct(ctx context.Context, req service.JobRequest) (map[string]any, error) {
	o := req.Options
	var d *core.Design
	if req.Bench != "" {
		var err error
		if d, err = core.LoadString("inline", req.Bench); err != nil {
			return nil, err
		}
	} else {
		c, err := circuits.Builtin(req.Builtin, req.N)
		if err != nil {
			return nil, err
		}
		d = core.FromCircuit(c)
	}
	if o.Scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return nil, err
		}
	}
	seed := o.Seed
	reg := telemetry.NewRegistry()
	view := d.View()
	fview := fault.View{Inputs: view.Inputs, Outputs: view.Outputs}
	switch req.Kind {
	case service.KindFaultSim:
		drop := fault.DropOn
		if o.Drop == "off" {
			drop = fault.DropOff
		}
		pats := randomPatterns(rand.New(rand.NewSource(seed)), o.Patterns, len(view.Inputs))
		res, err := fault.Simulate(ctx, d.Circuit, d.Faults(), pats, fault.Options{Workers: 1, Drop: drop, View: fview, Metrics: reg})
		if err != nil {
			return nil, err
		}
		kept := map[int]bool{}
		for _, b := range res.DetectedBy {
			if b >= 0 {
				kept[b] = true
			}
		}
		return map[string]any{"coverage": res.Coverage(), "detected": res.NumCaught,
			"targets": len(res.Faults), "kept_patterns": len(kept)}, nil
	case service.KindATPG:
		mode, err := compact.ParseMode(o.CompactMode)
		if err != nil {
			return nil, err
		}
		ts, err := d.GenerateContext(ctx, core.GenerateOptions{Engine: atpg.EnginePodem, Seed: seed,
			CompactMode: mode, Workers: 1, Metrics: reg})
		if err != nil {
			return nil, err
		}
		return map[string]any{"patterns": len(ts.Patterns), "coverage": ts.Coverage, "raw_coverage": ts.RawCover,
			"untestable": ts.Untestable, "aborted": ts.Aborted, "targets": ts.TargetN}, nil
	case service.KindDiagnose:
		dd, err := s.dictionary(ctx, req, d, fview)
		if err != nil {
			return nil, err
		}
		f, err := fault.ParseFault(o.Inject)
		if err != nil {
			return nil, err
		}
		sig, err := dd.dict.ObserveMachine(f)
		if err != nil {
			return nil, err
		}
		var cands []map[string]any
		for _, c := range dd.dict.Rank(sig, 10) {
			cands = append(cands, map[string]any{"fault": c.Fault.String(), "name": c.Fault.Name(d.Circuit), "distance": c.Distance})
		}
		exact := dd.dict.Lookup(sig)
		rep, ok := dd.classes.ClassOf[f]
		if !ok {
			return nil, fmt.Errorf("fault %s is outside the universe", f)
		}
		inClass := false
		for _, fi := range exact {
			inClass = inClass || dd.dict.Faults[fi] == dd.classes.Reps[rep]
		}
		if !inClass {
			return nil, fmt.Errorf("class of %s misses it in a direct lookup", f)
		}
		return map[string]any{"candidates": cands, "class_size": len(exact), "hit": true,
			"observed_fails": sig.Weight(), "dict_faults": len(dd.dict.Faults),
			"dict_patterns": dd.dict.NumPats, "dict_bytes": dd.dict.CompactBytes()}, nil
	case service.KindAdvise:
		plan, err := advise.Run(ctx, d.Circuit, advise.Options{Seed: uint64(seed), Workers: 1, Metrics: reg})
		if err != nil {
			return nil, err
		}
		return map[string]any{"baseline": plan.Baseline, "coverage": plan.Coverage, "steps": len(plan.Steps),
			"overhead_gates": plan.OverheadGates, "stop_reason": plan.StopReason, "plan": plan}, nil
	}
	return nil, fmt.Errorf("unexpected kind %q", req.Kind)
}

// directDiag is a dictionary built by direct library calls, shared by
// the checks of every lookup in it.
type directDiag struct {
	once    sync.Once
	dict    *diagnose.Dictionary
	classes fault.Classes
	err     error
}

func (s *serviceLoad) dictionary(ctx context.Context, req service.JobRequest, d *core.Design, view fault.View) (*directDiag, error) {
	key := fmt.Sprintf("%s/%d/%s/%d/%d", req.Builtin, req.N, req.Bench, req.Options.Patterns, req.Options.Seed)
	s.memoMu.Lock()
	dd, ok := s.memo[key]
	if !ok {
		dd = &directDiag{}
		s.memo[key] = dd
	}
	s.memoMu.Unlock()
	dd.once.Do(func() {
		c := d.Circuit
		reg := telemetry.NewRegistry()
		dd.classes = fault.CollapseEquiv(c, fault.Universe(c))
		pats := randomPatterns(rand.New(rand.NewSource(req.Options.Seed)), req.Options.Patterns, len(d.View().Inputs))
		pats, _, dd.err = compact.Patterns(ctx, c, d.View(), dd.classes.Reps, pats, compact.Options{
			Mode: compact.ModeReverse, Workers: 1, Seed: req.Options.Seed, Metrics: reg})
		if dd.err != nil {
			return
		}
		dd.dict, dd.err = diagnose.Build(ctx, c, dd.classes.Reps, pats, diagnose.Options{Workers: 1, View: view, Metrics: reg})
	})
	return dd, dd.err
}

// qualityPasses is how many passes the service's quality counts span:
// every timed run holds them (110 jobs need four 28-job passes), and a
// pass holds only six ATPG jobs.
const qualityPasses = 4

// quality counts the patterns of the first passes' new ATPG jobs and
// the share of faults detected over their new fault-simulation and
// ATPG jobs.
func (s *serviceLoad) quality(recs []*record) (int, float64) {
	pats := 0
	var caught, targets float64
	for _, r := range recs {
		if r.pass >= qualityPasses || r.err != nil || r.out.(*svcOut).orig != nil {
			continue
		}
		res := r.out.(*svcOut).results
		num := func(k string) float64 { v, _ := res[k].(float64); return v }
		switch r.kind {
		case "atpg":
			pats += int(num("patterns"))
			caught += math.Round(num("raw_coverage") * num("targets"))
			targets += num("targets")
		case "faultsim":
			caught += num("detected")
			targets += num("targets")
		}
	}
	return pats, 100 * ratio(caught, targets)
}

func (s *serviceLoad) layers(recs []*record, m metrics) {
	var submit, get, wait, exec, lookup, totalDictBytes float64
	var fresh, lookups, diags int
	var builds totals
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		o := r.out.(*svcOut)
		r.span.walk(func(sp *span) {
			switch sp.Name {
			case "service.submit":
				submit += float64(sp.dur()) / 1e6
			case "service.get":
				get += float64(sp.dur()) / 1e6
			}
		})
		if o.view.Cached {
			continue
		}
		fresh++
		wait += float64(o.view.WaitNs) / 1e6
		exec += float64(o.view.RunNs) / 1e6
		builds.add(r.snap)
		if o.req.Kind != service.KindDiagnose {
			continue
		}
		diags++
		dictBytes, _ := o.results["dict_bytes"].(float64)
		totalDictBytes += dictBytes
		if o.results["dict_cached"] == true {
			lookups++
			lookup += float64(o.view.RunNs) / 1e6
		}
	}
	n := float64(len(recs))
	m.set("service.submit_ms", "ms", submit/n)
	m.set("service.encode_ms", "ms", get/n)
	m.set("service.queue_wait_ms", "ms", ratio(wait, float64(fresh)))
	m.set("service.exec_ms", "ms", ratio(exec, float64(fresh)))
	m.set("diagnose.build_ms", "ms", ratio(builds.ms("diagnose.build"), float64(builds.timers["diagnose.build"].Count)))
	m.set("diagnose.lookup_ms", "ms", ratio(lookup, float64(lookups)))
	m.set("diagnose.dict_bytes", "bytes", ratio(totalDictBytes, float64(diags)))
	per := float64(passes(recs))
	d := &s.tracedDelta
	m.set("service.cache_hit_ratio", "ratio", ratio(float64(d.counters["service.cache.hits"]),
		float64(d.counters["service.cache.hits"]+d.counters["service.cache.misses"])))
	m.set("service.dict_hit_ratio", "ratio", ratio(float64(d.counters["service.dict.hits"]),
		float64(d.counters["service.dict.hits"]+d.counters["service.dict.misses"])))
	m.set("service.coalesced", "count", float64(d.counters["service.jobs.coalesced"])/per)
	m.set("service.rejected", "count", float64(d.counters["service.jobs.rejected"])/per)
	adviseMs, _ := spanStats(recs, "advise.run")
	m.set("advise.ms", "ms", adviseMs/per)
}
