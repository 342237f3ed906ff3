package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/service"
	"dft/internal/telemetry"
)

// serviceClients is the number of closed-loop clients; the server has
// as many workers, and every job grades on one engine worker.
const serviceClients = 2

// request is one request of a client's pass.
type request struct {
	kind string
	body service.JobRequest
	// repeatOf is the index of an earlier request of the same pass that
	// this one repeats, -1 for a new request.
	repeatOf int
}

// svcOut is what a client saw of one job: the GET response without
// its report, of which the checked results and a digest are kept.
type svcOut struct {
	req     service.JobRequest
	view    service.JobView
	results map[string]any
	orig    *record // the request a repeat repeats
}

// serviceLoad is an in-process dftd with two waiting clients. Its jobs
// are small, so admission, queueing, the caches, parse and lint, and
// report encoding are a large share of each; a fixed share of requests
// repeats a completed one and hits the result cache, and diagnose jobs
// look a new fault up in an already-built dictionary.
type serviceLoad struct {
	seed   int64
	srv    *service.Server
	reg    *telemetry.Registry
	inline map[string]string   // name → .bench text
	inject map[string][]string // builtin → faults to inject, in wire format

	tracedDelta totals // server registry over traced passes

	memoMu sync.Mutex
	memo   map[string]*directDiag
}

func (s *serviceLoad) clients() int { return serviceClients }

func (s *serviceLoad) close() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
	s.srv = nil
}

// Dictionaries that lookup jobs share; built during set-up.
var lookupNets = []struct {
	builtin string
	n       int
}{{"mult", 8}, {"alu74181x", 4}}

const lookupPatterns = 128

func (s *serviceLoad) setup(ctx context.Context, seed int64) ([]*netlist, error) {
	s.seed = seed
	s.memo = map[string]*directDiag{}
	s.inline = map[string]string{}
	var nets []*netlist
	for i, shape := range []struct{ in, gates int }{{16, 300}, {10, 60}} {
		c := circuits.RandomCircuit(rng(corpusVersion, 6, int64(i)), shape.in, shape.gates, 6, 4)
		n, err := newNetlist(fmt.Sprintf("inline%d", i), c)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
		s.inline[n.name] = string(n.bench)
	}
	s.inject = map[string][]string{}
	for _, ln := range lookupNets {
		c, err := circuits.Builtin(ln.builtin, ln.n)
		if err != nil {
			return nil, err
		}
		for _, f := range fault.Universe(c) {
			s.inject[ln.builtin] = append(s.inject[ln.builtin], f.String())
		}
	}
	// The builtins the requests name, for the corpus record.
	seen := map[string]bool{}
	for _, rq := range s.requests(-1, 0) {
		b := rq.body
		name := b.Builtin
		if b.N > 0 {
			name += fmt.Sprint(b.N)
		}
		if b.Builtin == "" || seen[name] {
			continue
		}
		seen[name] = true
		c, err := circuits.Builtin(b.Builtin, b.N)
		if err != nil {
			return nil, err
		}
		n, err := newNetlist(name, c)
		if err != nil {
			return nil, err
		}
		nets = append(nets, n)
	}
	s.reg = telemetry.NewRegistry()
	s.srv = service.New(service.Config{Workers: serviceClients, Metrics: s.reg, MaxJobs: 128})
	// Warm-up: build the lookup dictionaries and run one job of each
	// kind, on seeds no pass uses.
	for _, rq := range s.requests(-1, 0) {
		if rq.repeatOf >= 0 {
			continue
		}
		if r := s.do(ctx, -1, rq, nil, nil); r.err != nil {
			return nil, r.err
		}
	}
	return nets, nil
}

// requests is client c's request list for pass p. Each new request
// carries a seed (or injected fault) no other client or pass uses, so
// it misses the result cache; repeats name a request this client has
// already seen complete, so they hit it.
func (s *serviceLoad) requests(p, c int) []request {
	k := 0
	fresh := func() int64 {
		k++
		return 1 + derive(s.seed, 7, int64(p), int64(c), int64(k))%1_000_000_000
	}
	dictSeed := 1 + derive(s.seed, 8)%1_000_000_000
	pick := func(builtin string) string {
		fs := s.inject[builtin]
		// Distinct per (pass, client) until a run exceeds len(fs)/2
		// passes; the warm-up pass is p = -1.
		return fs[((p+1)*2+c)%len(fs)]
	}
	job := func(kind service.Kind, builtin string, n int, o service.Options) service.JobRequest {
		o.Workers = 1
		r := service.JobRequest{Kind: kind, Builtin: builtin, N: n, Options: o}
		if b, ok := s.inline[builtin]; ok {
			r.Builtin, r.Bench = "", b
		}
		return r
	}
	reqs := []request{
		{"faultsim", job(service.KindFaultSim, "alu74181", 0, service.Options{Patterns: 512, Seed: fresh()}), -1},
		{"faultsim", job(service.KindFaultSim, "inline0", 0, service.Options{Patterns: 256, Drop: "off", Seed: fresh()}), -1},
		{"atpg", job(service.KindATPG, "mult", 6, service.Options{CompactMode: "full", Seed: fresh()}), -1},
		{"atpg", job(service.KindATPG, "inline1", 0, service.Options{CompactMode: "reverse", Seed: fresh()}), -1},
		{"atpg", job(service.KindATPG, "hardcore", 8, service.Options{Scan: true, Seed: fresh()}), -1},
		{"diagnose-lookup", job(service.KindDiagnose, "mult", 8, service.Options{Patterns: lookupPatterns, Seed: dictSeed, Inject: pick("mult")}), -1},
		{"diagnose-lookup", job(service.KindDiagnose, "alu74181x", 4, service.Options{Patterns: lookupPatterns, Seed: dictSeed, Inject: pick("alu74181x")}), -1},
		{"diagnose-build", job(service.KindDiagnose, "adder", 8, service.Options{Patterns: 64, Seed: fresh(), Inject: "g20 s-a-1"}), -1},
		{"advise", job(service.KindAdvise, "hardcore", 8, service.Options{Seed: fresh()}), -1},
		{"advise", job(service.KindAdvise, "counter", 8, service.Options{Seed: fresh()}), -1},
	}
	for _, i := range []int{0, 2, 5, 8} {
		reqs = append(reqs, request{"repeat", reqs[i].body, i})
	}
	return reqs
}

func (s *serviceLoad) pass(ctx context.Context, p int, tr *tracer) ([]*record, error) {
	var before telemetry.Snapshot
	if tr != nil {
		before = s.reg.Snapshot()
		drainCompiles()
	}
	out := make([][]*record, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reqs := s.requests(p, c)
			recs := make([]*record, len(reqs))
			for i, rq := range reqs {
				recs[i] = s.do(ctx, p, rq, recs, tr)
			}
			out[c] = recs
		}(c)
	}
	wg.Wait()
	var recs []*record
	for _, rs := range out {
		recs = append(recs, rs...)
	}
	if tr != nil {
		after := s.reg.Snapshot()
		s.tracedDelta.addDelta(&before, &after)
		var roots []*span
		for _, r := range recs {
			roots = append(roots, r.span)
		}
		placeCompiles(roots, drainCompiles())
	}
	return recs, nil
}

// do sends one request through the server's HTTP handler, waits for
// the job and fetches its view, as a dftd client would.
func (s *serviceLoad) do(ctx context.Context, p int, rq request, prev []*record, tr *tracer) *record {
	body, err := json.Marshal(rq.body)
	rec := &record{pass: p, kind: rq.kind, key: fmt.Sprintf("%x", sha256.Sum256(body))}
	if err != nil {
		rec.err = err
		return rec
	}
	out := &svcOut{req: rq.body}
	if rq.repeatOf >= 0 && prev != nil {
		out.orig = prev[rq.repeatOf]
	}
	rec.out = out
	root := tr.root(rec.key[:12], "service.request")
	var results map[string]any
	start := time.Now()
	rec.err = func() error {
		sp := root.child("service.submit")
		w := httptest.NewRecorder()
		s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		sp.end()
		if w.Code != http.StatusAccepted {
			return fmt.Errorf("submit: HTTP %d: %s", w.Code, w.Body.Bytes())
		}
		var v service.JobView
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		sp = root.child("service.wait")
		_, err := s.srv.Wait(ctx, v.ID)
		sp.end()
		if err != nil {
			return err
		}
		wait := sp
		sp = root.child("service.get")
		w = httptest.NewRecorder()
		s.srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID, nil))
		if w.Code == http.StatusOK {
			err = json.Unmarshal(w.Body.Bytes(), &out.view)
		}
		sp.end()
		if w.Code != http.StatusOK || err != nil {
			return fmt.Errorf("get %s: HTTP %d: %v", v.ID, w.Code, err)
		}
		if out.view.State != service.StateDone {
			return fmt.Errorf("job %s ended %s: %s", v.ID, out.view.State, out.view.Error)
		}
		report := out.view.Report
		out.view.Report = nil
		rep, err := telemetry.ParseReport(report)
		if err != nil {
			return err
		}
		results = rep.Results
		rec.digest = fmt.Sprintf("%x", sha256.Sum256(report))
		if !out.view.Cached && wait != nil {
			// The job's own telemetry, and its queue wait and run placed
			// inside the client's wait, clipped to it.
			rec.snap = &rep.Metrics
			started := out.view.CreatedNs + out.view.WaitNs
			clip := func(t int64) int64 { return min(max(t, wait.StartNs), wait.EndNs) }
			wait.add("service.queue", clip(out.view.CreatedNs), clip(started))
			wait.add("service.exec", clip(started), clip(started+out.view.RunNs)).graft(rep.Trace)
		}
		return nil
	}()
	rec.dur = time.Since(start)
	root.end()
	rec.span = root
	if rec.err == nil && out.orig == nil {
		out.results = keepResults(rq.body.Kind, results)
	}
	return rec
}
