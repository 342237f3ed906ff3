// Command perfbench is the toolkit's end-to-end benchmark. It drives
// the library's public surface — the calls dftc and dftd make — over a
// seeded, versioned corpus, checks every output, and prints one JSON
// result line:
//
//	perfbench --workload grade|testgen|service --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run instead.
// See README.md for the metric → layer → workload map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dft/internal/telemetry"
)

// minJobs is the smallest timed sample a run may end with: at least
// ten jobs lie beyond the reported p90 tail.
const minJobs = 110

// runOptions configures one benchmark run.
type runOptions struct {
	workload string
	seed     int64
	window   time.Duration // the timed passes last at least this long
	minJobs  int           // and hold at least this many jobs
	traced   bool
}

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupRounds = 3

// workload is one benchmark input set. Jobs are a fixed, seeded
// sequence; a pass runs the whole sequence once, and a run repeats
// whole passes, so the job mix never depends on timing.
type workload interface {
	// setup generates the corpus, starts what the jobs need and warms
	// the program up, and returns the corpus netlists. It is called
	// setupRounds times; the last set-up is the one measured.
	setup(ctx context.Context, seed int64) ([]*netlist, error)
	// clients is the number of concurrent closed-loop clients.
	clients() int
	// pass runs pass p, recording a span tree per job when tr is non-nil.
	pass(ctx context.Context, p int, tr *tracer) ([]*record, error)
	// check verifies the outputs of the timed run and returns one error
	// per failed job.
	check(ctx context.Context, recs []*record) []error
	// quality returns the test patterns and the fault coverage of the
	// run's first passes, both fixed by the seed.
	quality(recs []*record) (patterns int, coveragePct float64)
	// layers adds the workload's counter- and timer-derived per-layer
	// metrics, read from the traced passes, to m.
	layers(recs []*record, m metrics)
	// close stops everything setup started.
	close()
}

// record is one completed (or failed) job of a timed pass.
type record struct {
	pass int
	// key names the job's inputs: two records with the same key must
	// produce the same output.
	key  string
	kind string
	dur  time.Duration
	err  error
	// out is the workload's output for the check; digest summarizes it
	// so repeats of a key compare cheaply.
	out    any
	digest string
	// snap is the job's own telemetry; span is the job's trace when the
	// pass was traced.
	snap *telemetry.Snapshot
	span *span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "grade":
		return &grade{}, nil
	case "testgen":
		return &testgen{}, nil
	case "service":
		return &serviceLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want grade, testgen or service)", name)
}

func main() {
	name := flag.String("workload", "", "grade, testgen or service")
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", 10, "minimum timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs a traced run and reports per-layer metrics")
	flag.Parse()
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), w, runOptions{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		minJobs:  minJobs,
		traced:   *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run sets the workload up, measures it and checks it. An untraced run
// reports the end-to-end metrics; a traced run alternates untraced and
// traced passes and reports the per-layer metrics.
func run(ctx context.Context, w workload, o runOptions) (*result, error) {
	traced := o.traced
	defer w.close()
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		nets, err := w.setup(ctx, o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			logCorpus(o.workload, o.seed, nets)
		}
	}
	runtime.GC()

	var recs []*record
	var wall [2]time.Duration // untraced, traced
	var simDelta totals       // process-wide sim.* instruments over traced passes
	var jobs [2]int
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start := time.Now()
	for p := 0; ; p++ {
		var tr *tracer
		if traced && p%2 == 1 {
			tr = &tracer{}
		}
		before := telemetry.Default().Snapshot()
		t0 := time.Now()
		got, err := w.pass(ctx, p, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		mode := 0
		if tr != nil {
			mode = 1
			after := telemetry.Default().Snapshot()
			simDelta.addDelta(&before, &after)
		}
		wall[mode] += time.Since(t0)
		jobs[mode] += len(got)
		recs = append(recs, got...)
		if time.Since(start) >= o.window && len(recs) >= o.minJobs && (!traced || p%2 == 1) {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&mem1)
	peakMB := peakRSSMB()

	errs := w.check(ctx, recs)
	for _, r := range recs {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("%s (pass %d): %w", r.key, r.pass, r.err))
		}
	}
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	res := &result{
		Correct:   len(errs) == 0,
		Attempted: len(recs),
		Failed:    min(len(errs), len(recs)),
		Metrics:   metrics{},
	}
	m := res.Metrics
	if !traced {
		durs := make([]float64, len(recs))
		for i, r := range recs {
			durs[i] = ms(r.dur)
		}
		pats, cov := w.quality(recs)
		m.set("jobs_per_s", "jobs/s", float64(len(recs))/elapsed.Seconds())
		m.set("job_ms_p50", "ms", quantile(durs, 0.50))
		m.set("job_ms_p90", "ms", quantile(durs, 0.90))
		m.set("setup_s", "s", median(setups))
		m.set("peak_rss_mb", "MB", peakMB)
		m.set("patterns", "count", float64(pats))
		m.set("coverage_pct", "%", cov)
		return res, nil
	}

	var tracedRecs []*record
	for _, r := range recs {
		if r.span != nil {
			tracedRecs = append(tracedRecs, r)
		}
	}
	for _, l := range perLayer {
		m.set(l.name, l.unit, 0)
	}
	per := float64(passes(tracedRecs))
	parseMs, _ := spanStats(tracedRecs, "logic.parse")
	gradeMs, _ := spanStats(tracedRecs, "fault.simulate")
	m.set("logic.parse_ms", "ms", parseMs/per)
	m.set("fault.grade_ms", "ms", gradeMs/per)
	m.set("sim.compile_ms", "ms", simDelta.ms("sim.compile")/per)
	m.set("sim.compile.programs", "count", float64(simDelta.counters["sim.compile.programs"])/per)
	m.set("sim.kernel_evals", "count", float64(simDelta.counters["sim.kernel.bool_evals"]+
		simDelta.counters["sim.kernel.word_evals"]+simDelta.counters["sim.kernel.block_evals"])/per)
	registryLayers(tracedRecs, m)
	layerSelf(tracedRecs, wall[1], w.clients(), m)
	w.layers(tracedRecs, m)
	// Throughput of each half, for the spans' own cost.
	untracedRate := float64(jobs[0]) / wall[0].Seconds()
	tracedRate := float64(jobs[1]) / wall[1].Seconds()
	m.set("telemetry.trace_overhead_pct", "%", 100*(untracedRate/tracedRate-1))
	m.set("alloc_mb_per_job", "MB", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20)/float64(len(recs)))
	m.set("gc_pause_ms", "ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6/float64(passes(recs)))
	if err := writeTrace(fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed), tracedRecs); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
