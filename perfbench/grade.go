package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/telemetry"
)

// gradeSizes are the gate counts of the grade corpus's random netlists:
// far past the largest library circuit, so the engine and kernel carry
// almost all the work. Two netlists of each size keep one netlist's
// structure from setting a run's median.
var gradeSizes = []int{2000, 2000, 2400, 2400, 2800, 2800, 3200, 3200}

// gradeShape is one way a job grades a netlist. Each shape is the one
// an Auto backend pick was built for: many patterns without dropping
// go to critical-path tracing, many with dropping to the parallel-
// pattern engine, and a short re-grade to the fault-parallel engine.
type gradeShape struct {
	name     string
	patterns int
	drop     fault.DropMode
}

var gradeShapes = []gradeShape{
	{"nodrop", 192, fault.DropOff},
	{"drop", 384, fault.DropOn},
	{"regrade", 8, fault.DropOn},
}

// gradeSample is how many faults of each job the check re-grades on
// the serial backend.
const gradeSample = 32

type gradeJob struct {
	key    string
	net    *netlist
	drop   fault.DropMode
	pats   [][]bool
	sample []int // fault indices the check re-grades
}

type gradeOut struct {
	detected []bool
	by       []int
	caught   int
	grades   int64 // faults × patterns
}

// grade is bulk fault grading of large generated netlists: each job
// loads a netlist, collapses its faults and grades a pattern set with
// the Auto backend on every CPU.
type grade struct {
	jobs []*gradeJob
}

func (g *grade) clients() int { return 1 }
func (g *grade) close()       {}

func (g *grade) setup(ctx context.Context, seed int64) ([]*netlist, error) {
	g.jobs = nil
	var nets []*netlist
	for i, size := range gradeSizes {
		c := circuits.RandomCircuit(rng(corpusVersion, 1, int64(i)), 64, size, 32, 4)
		n, err := newNetlist(fmt.Sprintf("grade%d_g%d", i, size), c)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
		for si, sh := range gradeShapes {
			r := rng(seed, 2, int64(i), int64(si))
			j := &gradeJob{
				key:  fmt.Sprintf("%s/%s", n.name, sh.name),
				net:  n,
				drop: sh.drop,
				pats: randomPatterns(r, sh.patterns, 64),
			}
			for k := 0; k < gradeSample; k++ {
				j.sample = append(j.sample, r.Intn(n.faults))
			}
			g.jobs = append(g.jobs, j)
		}
	}
	// Warm-up: one job of each shape on the smallest netlist.
	for _, j := range g.jobs[:len(gradeShapes)] {
		if r := g.run(ctx, 0, j, nil); r.err != nil {
			return nil, r.err
		}
	}
	return nets, nil
}

func (g *grade) pass(ctx context.Context, p int, tr *tracer) ([]*record, error) {
	recs := make([]*record, 0, len(g.jobs))
	for _, j := range g.jobs {
		recs = append(recs, g.run(ctx, p, j, tr))
	}
	return recs, nil
}

func (g *grade) run(ctx context.Context, p int, j *gradeJob, tr *tracer) *record {
	rec := &record{pass: p, key: j.key, kind: "grade"}
	reg := telemetry.NewRegistry()
	root := tr.root(j.key, "core.job")
	start := time.Now()
	rec.out, rec.err = func() (*gradeOut, error) {
		sp := root.child("logic.parse")
		d, err := j.net.load()
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = root.child("fault.collapse")
		faults := d.Faults()
		sp.end()
		sp = root.child("fault.simulate")
		res, err := fault.Simulate(ctx, d.Circuit, faults, j.pats, fault.Options{
			Workers: runtime.GOMAXPROCS(0),
			Drop:    j.drop,
			Metrics: reg,
		})
		sp.end()
		sp.graftRegistry(reg)
		if err != nil {
			return nil, err
		}
		return &gradeOut{
			detected: res.Detected,
			by:       res.DetectedBy,
			caught:   res.NumCaught,
			grades:   int64(len(faults)) * int64(len(j.pats)),
		}, nil
	}()
	rec.dur = time.Since(start)
	root.end()
	finishRecord(rec, reg, root)
	if rec.err == nil {
		o := rec.out.(*gradeOut)
		rec.digest = o.digest()
		if p > 0 {
			// Later passes are checked by digest; keep only the count.
			rec.out = &gradeOut{grades: o.grades}
		}
	}
	return rec
}

func (o *gradeOut) digest() string {
	h := fnv.New64a()
	for i, d := range o.detected {
		fmt.Fprintf(h, "%v%d,", d, o.by[i])
	}
	return fmt.Sprintf("%x/%d", h.Sum64(), o.caught)
}

// check re-grades a sampled fault subset of every distinct job on the
// serial backend, whose detect bits and first-detecting patterns must
// match, and requires every repeat of a job to match its first run.
func (g *grade) check(ctx context.Context, recs []*record) []error {
	byKey := map[string]*gradeJob{}
	for _, j := range g.jobs {
		byKey[j.key] = j
	}
	var errs []error
	first := firstRuns(recs, &errs)
	for key, r := range first {
		if err := g.verify(ctx, byKey[key], r.out.(*gradeOut)); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", key, err))
		}
	}
	return errs
}

func (g *grade) verify(ctx context.Context, j *gradeJob, out *gradeOut) error {
	d, err := j.net.load()
	if err != nil {
		return err
	}
	faults := d.Faults()
	if len(out.detected) != len(faults) {
		return fmt.Errorf("graded %d faults, want %d", len(out.detected), len(faults))
	}
	caught := 0
	for _, det := range out.detected {
		if det {
			caught++
		}
	}
	if caught != out.caught {
		return fmt.Errorf("reports %d detected faults, its bitmap holds %d", out.caught, caught)
	}
	sub := make([]fault.Fault, len(j.sample))
	for k, fi := range j.sample {
		sub[k] = faults[fi]
	}
	ref, err := fault.Simulate(ctx, d.Circuit, sub, j.pats, fault.Options{
		Backend: fault.BackendSerial,
		Workers: 1,
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	for k, fi := range j.sample {
		if ref.Detected[k] != out.detected[fi] || ref.DetectedBy[k] != out.by[fi] {
			return fmt.Errorf("fault %s: detected=%v by pattern %d, serial backend says %v by %d",
				faults[fi], out.detected[fi], out.by[fi], ref.Detected[k], ref.DetectedBy[k])
		}
	}
	return nil
}

// quality counts, over pass 0, the patterns a tester would keep (those
// that first-detect some fault) and the share of faults detected.
func (g *grade) quality(recs []*record) (int, float64) {
	kept, caught, faults := 0, 0, 0
	for _, r := range recs {
		if r.pass != 0 || r.err != nil {
			continue
		}
		o := r.out.(*gradeOut)
		first := map[int]bool{}
		for _, b := range o.by {
			if b >= 0 {
				first[b] = true
			}
		}
		kept += len(first)
		caught += o.caught
		faults += len(o.detected)
	}
	return kept, 100 * ratio(float64(caught), float64(faults))
}

func (g *grade) layers(recs []*record, m metrics) {
	var grades int64
	for _, r := range recs {
		if r.err == nil {
			grades += r.out.(*gradeOut).grades
		}
	}
	simMs, _ := spanStats(recs, "fault.simulate")
	m.set("fault.grades", "count", float64(grades)/float64(passes(recs)))
	m.set("fault.grades_per_s", "1/s", ratio(float64(grades), simMs/1e3))
}
