package main

import (
	"fmt"

	"dft/internal/telemetry"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run prints all of them; a
// layer the workload never reaches reads 0.
var perLayer = []struct{ name, unit string }{
	{"logic.parse_ms", "ms"},
	{"sim.compile_ms", "ms"},
	{"sim.compile.programs", "count"},
	{"sim.kernel_evals", "count"},
	{"fault.grade_ms", "ms"},
	{"fault.grades", "count"},
	{"fault.grades_per_s", "1/s"},
	{"fault.backend_runs.parallel", "count"},
	{"fault.backend_runs.cpt", "count"},
	{"fault.backend_runs.faultparallel", "count"},
	{"fault.backend_runs.deductive", "count"},
	{"fault.backend_runs.serial", "count"},
	{"fault.events", "count"},
	{"fault.session_ms", "ms"},
	{"atpg.random_ms", "ms"},
	{"atpg.deterministic_ms", "ms"},
	{"atpg.backtracks", "count"},
	{"atpg.faults_targeted", "count"},
	{"atpg.faults_aborted", "count"},
	{"atpg.faults_untestable", "count"},
	{"atpg.ms_per_target", "ms"},
	{"atpg.detect_ratio", "ratio"},
	{"compact.ms", "ms"},
	{"compact.patterns_dropped", "count"},
	{"compact.merge_hit_ratio", "ratio"},
	{"compact.dynamic_hit_ratio", "ratio"},
	{"advise.ms", "ms"},
	{"advise.probe_ms", "ms"},
	{"advise.iterations", "count"},
	{"advise.candidates_scored", "count"},
	{"advise.applied_ratio", "ratio"},
	{"advise.overhead_pct", "%"},
	{"diagnose.build_ms", "ms"},
	{"diagnose.lookup_ms", "ms"},
	{"diagnose.dict_bytes", "bytes"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.dict_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.rejected", "count"},
	{"self_ms.logic", "ms"},
	{"self_ms.sim", "ms"},
	{"self_ms.fault", "ms"},
	{"self_ms.atpg", "ms"},
	{"self_ms.compact", "ms"},
	{"self_ms.advise", "ms"},
	{"self_ms.diagnose", "ms"},
	{"self_ms.service", "ms"},
	{"self_ms.core", "ms"},
	{"self_ms.unattributed", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"gc_pause_ms", "ms"},
	{"telemetry.trace_overhead_pct", "%"},
}

// registryLayers derives the per-layer metrics the program's own
// timers and counters give, from the snapshots of the traced jobs'
// registries. Times are averaged per pass over the traced passes;
// counts and ratios come from the first traced pass alone, so they
// repeat exactly on one seed.
func registryLayers(recs []*record, m metrics) {
	if len(recs) == 0 {
		return
	}
	var all, once, search totals
	for _, r := range recs {
		all.add(r.snap)
		if r.pass == recs[0].pass {
			once.add(r.snap)
		}
		if r.kind == "atpg" || r.kind == "advise" {
			search.add(r.snap)
		}
	}
	per := float64(passes(recs))
	perPass := func(name string, ms float64) { m.set(name, "ms", ms/per) }
	count := func(name string, v int64) { m.set(name, "count", float64(v)) }

	count("fault.backend_runs.parallel", once.timers["fault.sim.engine"].Count)
	count("fault.backend_runs.cpt", once.timers["fault.sim.cpt"].Count)
	count("fault.backend_runs.faultparallel", once.timers["fault.sim.spmf"].Count)
	count("fault.backend_runs.deductive", once.timers["fault.sim.deductive"].Count)
	count("fault.backend_runs.serial", once.timers["fault.sim.serial"].Count)
	count("fault.events", once.counters["fault.sim.events"])
	var sessionNs int64
	for _, t := range []string{"fault.sim.engine", "fault.sim.cpt", "fault.sim.spmf", "fault.sim.deductive", "fault.sim.serial"} {
		sessionNs += search.timers[t].TotalNs
	}
	perPass("fault.session_ms", float64(sessionNs)/1e6)

	perPass("atpg.random_ms", all.ms("atpg.random"))
	perPass("atpg.deterministic_ms", all.ms("atpg.deterministic"))
	count("atpg.backtracks", once.counters["atpg.backtracks"])
	count("atpg.faults_targeted", once.counters["atpg.faults.targeted"])
	count("atpg.faults_aborted", once.counters["atpg.faults.aborted"])
	count("atpg.faults_untestable", once.counters["atpg.faults.untestable"])
	m.set("atpg.ms_per_target", "ms", ratio(all.ms("atpg.deterministic"), float64(all.timers["atpg.engine.podem"].Count)))
	m.set("atpg.detect_ratio", "ratio", once.ratio("atpg.faults.detected", "atpg.faults.targeted"))

	perPass("compact.ms", all.ms("compact.run"))
	count("compact.patterns_dropped", once.counters["compact.patterns.dropped"])
	m.set("compact.merge_hit_ratio", "ratio", once.ratio("compact.merge.hits", "compact.merge.attempts"))
	m.set("compact.dynamic_hit_ratio", "ratio", once.ratio("compact.dynamic.hits", "compact.dynamic.attempts"))

	perPass("advise.probe_ms", all.ms("advise.probe"))
	count("advise.iterations", once.timers["advise.iteration"].Count)
	count("advise.candidates_scored", once.counters["advise.candidates.scored"])
	m.set("advise.applied_ratio", "ratio", once.ratio("advise.interventions.applied", "advise.candidates.scored"))
}

// totals sums registry snapshots.
type totals struct {
	counters map[string]int64
	timers   map[string]telemetry.TimerStat
}

func (t *totals) add(s *telemetry.Snapshot) {
	if s == nil {
		return
	}
	if t.counters == nil {
		t.counters = map[string]int64{}
		t.timers = map[string]telemetry.TimerStat{}
	}
	for k, v := range s.Counters {
		t.counters[k] += v
	}
	for k, v := range s.Timers {
		acc := t.timers[k]
		acc.Count += v.Count
		acc.TotalNs += v.TotalNs
		t.timers[k] = acc
	}
}

// addDelta adds after − before.
func (t *totals) addDelta(before, after *telemetry.Snapshot) {
	t.add(after)
	for k, v := range before.Counters {
		t.counters[k] -= v
	}
	for k, v := range before.Timers {
		acc := t.timers[k]
		acc.Count -= v.Count
		acc.TotalNs -= v.TotalNs
		t.timers[k] = acc
	}
}

func (t *totals) ms(timer string) float64 { return float64(t.timers[timer].TotalNs) / 1e6 }

func (t *totals) ratio(num, den string) float64 {
	return ratio(float64(t.counters[num]), float64(t.counters[den]))
}

// passes counts the distinct passes recs come from.
func passes(recs []*record) int {
	seen := map[int]bool{}
	for _, r := range recs {
		seen[r.pass] = true
	}
	return max(1, len(seen))
}

// finishRecord keeps the job registry's snapshot and, for a traced
// job, its span tree with the compile spans placed in it.
func finishRecord(rec *record, reg *telemetry.Registry, root *span) {
	s := reg.Snapshot()
	rec.snap = &s
	if root != nil {
		rec.span = root
		placeCompiles([]*span{root}, drainCompiles())
	}
}

// drainCompiles returns and clears the process-wide registry's trace
// ring, where the program records its sim.compile spans.
func drainCompiles() []telemetry.Event {
	tr := telemetry.Default().Trace()
	ev, _ := tr.Events()
	tr.Reset()
	return ev
}

// firstRuns returns the first error-free run of every job key and adds
// an error for each later run whose output differs from it.
func firstRuns(recs []*record, errs *[]error) map[string]*record {
	first := map[string]*record{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		f, ok := first[r.key]
		if !ok {
			first[r.key] = r
			continue
		}
		if r.digest != f.digest {
			*errs = append(*errs, fmt.Errorf("%s: pass %d output differs from pass %d", r.key, r.pass, f.pass))
		}
	}
	return first
}
