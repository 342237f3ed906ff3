package service

// End-to-end acceptance tests for the job daemon, all race-enabled:
// concurrent mixed-circuit submissions whose coverage must be
// byte-identical to direct fault.Simulate calls, cache hits observed
// through /metrics, 429 backpressure with a JSON body, cancellation,
// and graceful drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/telemetry"
)

// testServer starts a job server on an ephemeral port with a private
// registry.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, reg
}

// postJob submits a request and decodes the response body.
func postJob(t *testing.T, base string, req JobRequest) (JobView, int, errorBody) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v, resp.StatusCode, errorBody{}
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("non-JSON error body (status %d): %v", resp.StatusCode, err)
	}
	return JobView{}, resp.StatusCode, e
}

// getJob fetches a job view over HTTP.
func getJob(t *testing.T, base, id string) (JobView, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job %s: %v", id, err)
	}
	return v, resp.StatusCode
}

// waitTerminal polls a job over HTTP until it reaches a terminal
// state.
func waitTerminal(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if v.State.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobView{}
}

// reportResults pulls the Results section out of a finished job.
func reportResults(t *testing.T, v JobView) map[string]json.RawMessage {
	t.Helper()
	if len(v.Report) == 0 {
		t.Fatalf("job %s (%s) has no report", v.ID, v.State)
	}
	var rep struct {
		Schema  string                     `json:"schema"`
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(v.Report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != telemetry.ReportSchema {
		t.Fatalf("report schema %q", rep.Schema)
	}
	return rep.Results
}

// mixedJob builds the i-th distinct faultsim request over a cycle of
// library circuits.
func mixedJob(i int) JobRequest {
	kinds := []struct {
		builtin string
		n       int
	}{
		{"c17", 0}, {"adder", 4}, {"parity", 8}, {"mux", 2},
		{"cmp", 4}, {"maj", 5}, {"decoder", 3}, {"alu74181", 0},
	}
	k := kinds[i%len(kinds)]
	return JobRequest{
		Kind:    KindFaultSim,
		Builtin: k.builtin,
		N:       k.n,
		Options: Options{Seed: int64(i + 1), Patterns: 256},
	}
}

// directCoverage computes the coverage a job must reproduce: the same
// circuit, view, seeded pattern set and options through a direct
// fault.Simulate call.
func directCoverage(t *testing.T, req JobRequest) float64 {
	t.Helper()
	c, err := circuits.Builtin(req.Builtin, req.N)
	if err != nil {
		t.Fatal(err)
	}
	d := core.FromCircuit(c)
	view := d.View()
	rng := rand.New(rand.NewSource(req.Options.Seed))
	pats := make([][]bool, req.Options.Patterns)
	for i := range pats {
		p := make([]bool, len(view.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	res, err := fault.Simulate(context.Background(), d.Circuit, d.Faults(), pats, fault.Options{
		View:    view,
		Metrics: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Coverage()
}

// metricValue scrapes one sample value from the /metrics exposition.
func metricValue(t *testing.T, base, name string) (int64, bool) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			if _, err := fmt.Sscanf(line, name+" %d", &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestServiceEndToEnd is acceptance criteria (a) and (b): 32
// concurrent mixed-circuit faultsim jobs, each byte-identical to the
// direct engine call, then an identical resubmission served from the
// result cache and observed through /metrics.
func TestServiceEndToEnd(t *testing.T) {
	_, ts, _ := testServer(t, Config{Workers: 4, QueueDepth: 64, CacheSize: 64})

	const jobs = 32
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, code, e := postJob(t, ts.URL, mixedJob(i))
			if code != http.StatusAccepted {
				errs[i] = fmt.Errorf("job %d: status %d (%s)", i, code, e.Error)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// (a) every job's coverage must match the direct engine call —
	// compare the marshaled JSON bytes, not an epsilon.
	for i := 0; i < jobs; i++ {
		v := waitTerminal(t, ts.URL, ids[i])
		if v.State != StateDone {
			t.Fatalf("job %d (%s): state %s, err %q", i, ids[i], v.State, v.Error)
		}
		got, ok := reportResults(t, v)["coverage"]
		if !ok {
			t.Fatalf("job %d: report has no coverage", i)
		}
		want, err := json.Marshal(directCoverage(t, mixedJob(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %d coverage = %s, direct fault.Simulate = %s", i, got, want)
		}
	}

	// (b) an identical resubmission is a cache hit: already done at
	// submit time, same result bytes, and the counter shows on
	// /metrics.
	before, _ := metricValue(t, ts.URL, "dft_service_cache_hits_total")
	v, code, _ := postJob(t, ts.URL, mixedJob(0))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: status %d", code)
	}
	if !v.Cached || v.State != StateDone {
		t.Fatalf("resubmit: cached=%v state=%s, want cache hit", v.Cached, v.State)
	}
	first, _ := getJob(t, ts.URL, ids[0])
	if !bytes.Equal(v.Report, first.Report) {
		t.Fatal("cached report differs from the original run")
	}
	after, ok := metricValue(t, ts.URL, "dft_service_cache_hits_total")
	if !ok || after != before+1 {
		t.Fatalf("cache hits on /metrics: before=%d after=%d (found=%v)", before, after, ok)
	}
}

// slowJob is a fuzz job big enough to stay running until cancelled;
// the seed salt keeps keys distinct so jobs queue instead of
// coalescing.
func slowJob(salt int) JobRequest {
	return JobRequest{
		Kind:    KindFuzz,
		Options: Options{Rounds: 1_000_000, Patterns: 16 + salt},
	}
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, base, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, _ := getJob(t, base, id)
		if v.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestServiceBackpressure is acceptance criterion (c): with one
// worker occupied and the queue full, the next submission is 429 with
// a JSON error body carrying the queue depth.
func TestServiceBackpressure(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 1})

	running, code, _ := postJob(t, ts.URL, slowJob(0))
	if code != http.StatusAccepted {
		t.Fatalf("first job: status %d", code)
	}
	waitState(t, ts.URL, running.ID, StateRunning)

	queued, code, _ := postJob(t, ts.URL, slowJob(1))
	if code != http.StatusAccepted {
		t.Fatalf("second job: status %d", code)
	}

	_, code, e := postJob(t, ts.URL, slowJob(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429", code)
	}
	if e.Error == "" || e.QueueDepth != 1 || e.QueueCapacity != 1 {
		t.Fatalf("429 body = %+v, want error + queue depth/capacity", e)
	}

	// Cancel both: the runner unwinds through its context, the queued
	// one dies in place.
	for _, id := range []string{queued.ID, running.ID} {
		resp, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitState(t, ts.URL, id, StateCancelled)
	}
	if rep, err := srv.Shutdown(context.Background()); err != nil || rep == nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// newRequest issues a bodyless request with the given method.
func newRequest(t *testing.T, method, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return http.DefaultClient.Do(req)
}

// TestServiceGracefulDrain is acceptance criterion (d): Shutdown
// stops admission, lets queued and running jobs finish, and returns
// the final telemetry report.
func TestServiceGracefulDrain(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 2, QueueDepth: 16})

	const jobs = 8
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		v, code, e := postJob(t, ts.URL, mixedJob(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: status %d (%s)", i, code, e.Error)
		}
		ids[i] = v.ID
	}

	rep, err := srv.Shutdown(context.Background())
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rep == nil || rep.Schema != telemetry.ReportSchema {
		t.Fatalf("final report = %+v", rep)
	}

	// Every admitted job drained to done — none were dropped or
	// cancelled by the shutdown.
	for i, id := range ids {
		v, err := srv.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %d: state %s after drain, want done", i, v.State)
		}
	}
	if got := rep.Results["jobs_completed"].(int64); got < jobs {
		t.Fatalf("final report jobs_completed = %v, want >= %d", got, jobs)
	}

	// Admission is closed: HTTP answers 503.
	_, code, e := postJob(t, ts.URL, mixedJob(0))
	if code != http.StatusServiceUnavailable || e.Error == "" {
		t.Fatalf("post-shutdown submit: status %d body %+v, want 503", code, e)
	}
	// And a second Shutdown reports the misuse.
	if _, err := srv.Shutdown(context.Background()); err == nil {
		t.Fatal("second shutdown did not error")
	}
}

// TestServiceHardStop: an expired drain budget hard-cancels the
// running job through the base context instead of hanging.
func TestServiceHardStop(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 4})
	v, code, _ := postJob(t, ts.URL, slowJob(7))
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	waitState(t, ts.URL, v.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown within 30ms of a million-round fuzz job should report an incomplete drain")
	}
	if rep == nil {
		t.Fatal("hard stop must still return the final report")
	}
	jv, verr := srv.View(v.ID)
	if verr != nil || jv.State != StateCancelled {
		t.Fatalf("job after hard stop: %+v, %v", jv, verr)
	}
}

// TestServiceCoalescing: identical submissions while the key is
// in-flight attach to the same job instead of queueing twice.
func TestServiceCoalescing(t *testing.T) {
	srv, ts, reg := testServer(t, Config{Workers: 1, QueueDepth: 8})
	defer srv.Shutdown(context.Background())

	blocker, _, _ := postJob(t, ts.URL, slowJob(0))
	waitState(t, ts.URL, blocker.ID, StateRunning)

	// The worker is busy, so this queues...
	a, code, _ := postJob(t, ts.URL, mixedJob(1))
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	// ...and the identical twin coalesces onto it.
	b, code, _ := postJob(t, ts.URL, mixedJob(1))
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	if a.ID != b.ID {
		t.Fatalf("identical queued submissions got distinct jobs %s / %s", a.ID, b.ID)
	}
	if got := reg.Counter("service.jobs.coalesced").Value(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
	if resp, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID); err == nil {
		resp.Body.Close()
	}
	waitTerminal(t, ts.URL, a.ID)
}

// TestServiceValidation: malformed submissions are 400 with a JSON
// error, and unknown job lookups are 404.
func TestServiceValidation(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 2})
	defer srv.Shutdown(context.Background())

	for name, req := range map[string]JobRequest{
		"missing kind":         {Builtin: "c17"},
		"unknown kind":         {Kind: "synthesis", Builtin: "c17"},
		"no circuit":           {Kind: KindFaultSim},
		"both sources":         {Kind: KindFaultSim, Builtin: "c17", Bench: "INPUT(a)"},
		"bad builtin":          {Kind: KindFaultSim, Builtin: "nonesuch"},
		"bad size":             {Kind: KindFaultSim, Builtin: "maj", N: 4},
		"huge size":            {Kind: KindFaultSim, Builtin: "adder", N: 1 << 20},
		"bad backend":          {Kind: KindFaultSim, Builtin: "c17", Options: Options{Backend: "warp"}},
		"bad engine":           {Kind: KindATPG, Builtin: "c17", Options: Options{Engine: "brute"}},
		"bad compaction":       {Kind: KindATPG, Builtin: "c17", Options: Options{CompactMode: "bogus"}},
		"negative budget":      {Kind: KindFaultSim, Builtin: "c17", Options: Options{Patterns: -4}},
		"fuzz + circuit":       {Kind: KindFuzz, Builtin: "c17"},
		"diagnose no evidence": {Kind: KindDiagnose, Builtin: "c17"},
		"diagnose both evidence": {Kind: KindDiagnose, Builtin: "c17",
			Options: Options{Inject: "g6 s-a-0", Signature: "0101"}},
		"diagnose bad signature": {Kind: KindDiagnose, Builtin: "c17",
			Options: Options{Signature: "01x1"}},
		"diagnose bad inject": {Kind: KindDiagnose, Builtin: "c17",
			Options: Options{Inject: "g6 stuck"}},
		"diagnose negative top": {Kind: KindDiagnose, Builtin: "c17",
			Options: Options{Inject: "g6 s-a-0", Top: -1}},
		"signature on faultsim": {Kind: KindFaultSim, Builtin: "c17",
			Options: Options{Signature: "0101"}},
		"bad bench": {Kind: KindFaultSim,
			Bench: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n"},
	} {
		_, code, e := postJob(t, ts.URL, req)
		if code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status %d body %+v, want 400 + error", name, code, e)
		}
	}

	if _, code := getJob(t, ts.URL, "job-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	resp, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServiceCompactMode: compact_mode on atpg jobs runs the full
// compaction pipeline and surfaces its stats in the report, and on
// faultsim jobs compacts the graded random set.
func TestServiceCompactMode(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 2, QueueDepth: 8})
	defer srv.Shutdown(context.Background())

	v, code, _ := postJob(t, ts.URL, JobRequest{
		Kind: KindATPG, Builtin: "alu74181",
		Options: Options{Random: 64, CompactMode: "full"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got := waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("atpg compact job: %s (%s)", got.State, got.Error)
	}
	results := reportResults(t, got)
	var in, out int
	if err := json.Unmarshal(results["patterns_in"], &in); err != nil {
		t.Fatalf("patterns_in missing: %v", err)
	}
	if err := json.Unmarshal(results["patterns_out"], &out); err != nil {
		t.Fatalf("patterns_out missing: %v", err)
	}
	if out > in || out == 0 {
		t.Fatalf("compaction: patterns %d -> %d", in, out)
	}

	v, code, _ = postJob(t, ts.URL, JobRequest{
		Kind: KindFaultSim, Builtin: "mult", N: 5,
		Options: Options{Patterns: 256, CompactMode: "reverse"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got = waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("faultsim compact job: %s (%s)", got.State, got.Error)
	}
	results = reportResults(t, got)
	var ratio float64
	if err := json.Unmarshal(results["compact_ratio"], &ratio); err != nil {
		t.Fatalf("compact_ratio missing: %v", err)
	}
	if ratio < 2 {
		t.Fatalf("faultsim compact ratio = %.2f, want >= 2 on a 256-pattern random set", ratio)
	}
}

// TestServiceRejectsLegacyCompact: the legacy "compact" on/off switch
// is gone from the options schema, so a body still carrying it is
// refused as an unknown field instead of silently running uncompacted.
func TestServiceRejectsLegacyCompact(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 4})
	defer srv.Shutdown(context.Background())

	body := `{"kind":"atpg","builtin":"c17","options":{"compact":true}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("non-JSON error body (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "compact") {
		t.Fatalf("status %d body %+v, want 400 naming the unknown field", resp.StatusCode, e)
	}
}

// TestServiceDiagnose is the diagnosis acceptance check: a kind:
// diagnose job with an injected fault must return that fault's
// equivalence-class representative among the ranked candidates at
// Hamming distance 0 with an exact-class hit, a second job against the
// same design must reuse the cached dictionary, and a signature-driven
// job must accept a truncated response.
func TestServiceDiagnose(t *testing.T) {
	srv, ts, reg := testServer(t, Config{Workers: 2, QueueDepth: 8})
	defer srv.Shutdown(context.Background())

	c := circuits.C17()
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	truth := cl.Reps[3]

	v, code, e := postJob(t, ts.URL, JobRequest{
		Kind: KindDiagnose, Builtin: "c17",
		Options: Options{Inject: truth.String(), Patterns: 64},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d (%s)", code, e.Error)
	}
	got := waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("diagnose job: %s (%s)", got.State, got.Error)
	}
	results := reportResults(t, got)

	var cands []struct {
		Fault    string `json:"fault"`
		Name     string `json:"name"`
		Distance int    `json:"distance"`
	}
	if err := json.Unmarshal(results["candidates"], &cands); err != nil {
		t.Fatalf("candidates missing: %v", err)
	}
	found := false
	for _, cand := range cands {
		if cand.Fault == truth.String() {
			found = true
			if cand.Distance != 0 {
				t.Fatalf("injected rep ranked at distance %d, want 0", cand.Distance)
			}
		}
	}
	if !found {
		t.Fatalf("injected rep %s not among candidates %v", truth.String(), cands)
	}
	var hit, cached bool
	if err := json.Unmarshal(results["hit"], &hit); err != nil || !hit {
		t.Fatalf("hit = %s (%v), want true", results["hit"], err)
	}
	if err := json.Unmarshal(results["dict_cached"], &cached); err != nil || cached {
		t.Fatalf("first job dict_cached = %s, want false", results["dict_cached"])
	}

	// The unsalted seed defaults to 1, and the report says so.
	var rep struct {
		Config map[string]json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(got.Report, &rep); err != nil {
		t.Fatal(err)
	}
	var seed int64
	var defaulted bool
	if err := json.Unmarshal(rep.Config["seed"], &seed); err != nil || seed != 1 {
		t.Fatalf("config seed = %s (%v), want 1", rep.Config["seed"], err)
	}
	if err := json.Unmarshal(rep.Config["seed_defaulted"], &defaulted); err != nil || !defaulted {
		t.Fatalf("config seed_defaulted = %s (%v), want true", rep.Config["seed_defaulted"], err)
	}

	// A different evidence signature against the same design reuses the
	// dictionary: dict_cached flips, the hit counter moves, and the hit
	// reports the cached compaction without compacting again.
	first := results
	misses := reg.Counter("service.dict.misses").Value()
	v, code, _ = postJob(t, ts.URL, JobRequest{
		Kind: KindDiagnose, Builtin: "c17",
		Options: Options{Inject: cl.Reps[5].String(), Patterns: 64},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got = waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("second diagnose job: %s (%s)", got.State, got.Error)
	}
	results = reportResults(t, got)
	if err := json.Unmarshal(results["dict_cached"], &cached); err != nil || !cached {
		t.Fatalf("second job dict_cached = %s, want true", results["dict_cached"])
	}
	if h := reg.Counter("service.dict.hits").Value(); h < 1 {
		t.Fatalf("service.dict.hits = %d, want >= 1", h)
	}
	if m := reg.Counter("service.dict.misses").Value(); m != misses {
		t.Fatalf("second job missed the dictionary cache (%d -> %d)", misses, m)
	}
	for _, k := range []string{"patterns_in", "compact_ratio", "dict_patterns"} {
		if !bytes.Equal(results[k], first[k]) || len(first[k]) == 0 {
			t.Fatalf("cache hit %s = %s, build reported %s", k, results[k], first[k])
		}
	}
	var hitRep telemetry.Report
	if err := json.Unmarshal(got.Report, &hitRep); err != nil {
		t.Fatal(err)
	}
	if _, ok := hitRep.Metrics.Timers["compact.run"]; ok {
		t.Fatal("cache hit ran compaction (compact.run span in its report)")
	}

	// Truncated-signature evidence: a prefix of the injected machine's
	// response still ranks its class best.
	var dictPats int
	if err := json.Unmarshal(results["dict_patterns"], &dictPats); err != nil {
		t.Fatal(err)
	}
	half := dictPats / 2
	if half == 0 {
		t.Fatalf("dictionary kept %d patterns", dictPats)
	}
	sig := strings.Repeat("0", half)
	v, code, _ = postJob(t, ts.URL, JobRequest{
		Kind: KindDiagnose, Builtin: "c17",
		Options: Options{Signature: sig, Patterns: 64, Top: 3},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got = waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("signature job: %s (%s)", got.State, got.Error)
	}
	results = reportResults(t, got)
	if err := json.Unmarshal(results["candidates"], &cands); err != nil || len(cands) == 0 || len(cands) > 3 {
		t.Fatalf("signature candidates = %s (%v), want 1..3", results["candidates"], err)
	}
	var obs int
	if err := json.Unmarshal(results["observed_patterns"], &obs); err != nil || obs != half {
		t.Fatalf("observed_patterns = %s (%v), want %d", results["observed_patterns"], err, half)
	}
}

// TestServiceHealthz sanity-checks the liveness endpoint.
func TestServiceHealthz(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 3, QueueDepth: 5})
	defer srv.Shutdown(context.Background())
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || h.QueueCapacity != 5 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServiceRetention: past MaxJobs the table evicts finished jobs in
// finish order (a cache hit is born finished), never a queued or
// running one, and healthz reports the table held at the cap.
func TestServiceRetention(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 16, MaxJobs: 6})
	defer func() {
		// Hard-stop the slow jobs still queued or running.
		ctx, stop := context.WithCancel(context.Background())
		stop()
		srv.Shutdown(ctx) //nolint:errcheck // a hard stop reports ctx.Err()
	}()
	cancel := func(id string) {
		t.Helper()
		resp, err := newRequest(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitState(t, ts.URL, id, StateCancelled)
	}
	retained := func(want bool, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if _, err := srv.View(id); (err == nil) != want {
				t.Fatalf("job %s retained = %v, want %v", id, err == nil, want)
			}
		}
	}
	jobsInTable := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthBody
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Jobs
	}
	post := func(req JobRequest) string {
		t.Helper()
		v, code, _ := postJob(t, ts.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("status %d", code)
		}
		return v.ID
	}

	x := post(mixedJob(0))
	waitTerminal(t, ts.URL, x)
	blocker := post(slowJob(0))
	waitState(t, ts.URL, blocker, StateRunning)
	queued := post(slowJob(1))
	a, b, c := post(mixedJob(1)), post(mixedJob(2)), post(mixedJob(3))
	// Finish order X, C, A, B differs from admission order X, A, B, C.
	cancel(c)
	cancel(a)
	cancel(b)
	if n := jobsInTable(); n != 6 {
		t.Fatalf("healthz jobs = %d, want 6", n)
	}

	hit := post(mixedJob(0)) // served from the cache, born finished
	retained(false, x)
	retained(true, hit, a, b, c)
	post(slowJob(2))
	retained(false, c)
	retained(true, a, b, hit)
	post(slowJob(3))
	retained(false, a)
	post(slowJob(4))
	post(slowJob(5))
	retained(false, b, hit)
	retained(true, blocker, queued)
	if n := jobsInTable(); n != 6 {
		t.Fatalf("healthz jobs = %d, want the cap 6", n)
	}
	// With nothing finished left, queued and running jobs outgrow the
	// cap rather than being forgotten.
	last := post(slowJob(6))
	retained(true, blocker, queued, last)
	if n := jobsInTable(); n != 7 {
		t.Fatalf("healthz jobs = %d, want 7", n)
	}
}

// TestServiceCancelledJobsFreeQueue: cancelling a queued job takes it
// out of the admission queue. With the one worker busy, a depth-8
// queue holding 5 live jobs and 3 cancelled ones admits the next
// submission, reports it sixth in line, and counts 6 queued jobs.
func TestServiceCancelledJobsFreeQueue(t *testing.T) {
	srv, ts, reg := testServer(t, Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, stop := context.WithCancel(context.Background())
		stop()
		srv.Shutdown(ctx) //nolint:errcheck // a hard stop reports ctx.Err()
	}()
	submit := func(salt int) *Job {
		t.Helper()
		j, err := srv.Submit(slowJob(salt))
		if err != nil {
			t.Fatalf("job %d: %v", salt, err)
		}
		return j
	}
	blocker := submit(0)
	waitState(t, ts.URL, blocker.ID, StateRunning)
	var queued []*Job
	for salt := 1; salt <= 8; salt++ {
		queued = append(queued, submit(salt))
	}
	for _, j := range queued[1:4] {
		if v, err := srv.Cancel(j.ID); err != nil || v.State != StateCancelled {
			t.Fatalf("cancel %s: %+v, %v", j.ID, v, err)
		}
	}
	if n := srv.QueueDepth(); n != 5 {
		t.Fatalf("queue depth %d after 3 cancels, want 5", n)
	}
	next := submit(9)
	events, _, _ := next.events.since(0)
	if len(events) == 0 || events[0].Position != 6 {
		t.Fatalf("first event of the next job %+v, want queued at position 6", events)
	}
	if n := srv.QueueDepth(); n != 6 {
		t.Fatalf("queue depth %d, want 6", n)
	}
	if g := reg.Gauge("service.queue.depth").Value(); g != 6 {
		t.Fatalf("service.queue.depth = %d, want 6", g)
	}
}

// TestServiceRejectsOversizedCounts: a count past its pipeline bound
// is refused at admission with a bad-request error naming the field,
// its value and the bound, and the same server then finishes a normal
// job. The one worker is busy throughout the rejections, so a wrongly
// admitted job would wait in the queue and be cancelled, never run.
func TestServiceRejectsOversizedCounts(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 1, QueueDepth: 8})
	defer func() {
		ctx, stop := context.WithCancel(context.Background())
		stop()
		srv.Shutdown(ctx) //nolint:errcheck // a hard stop reports ctx.Err()
	}()
	blocker, err := srv.Submit(slowJob(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ts.URL, blocker.ID, StateRunning)
	const huge = 1 << 40
	for _, tc := range []struct {
		field string
		req   JobRequest
	}{
		{"patterns", JobRequest{Kind: KindFaultSim, Builtin: "c17", Options: Options{Patterns: huge}}},
		{"workers", JobRequest{Kind: KindFaultSim, Builtin: "c17", Options: Options{Workers: huge}}},
		{"random", JobRequest{Kind: KindATPG, Builtin: "c17", Options: Options{Random: huge}}},
		{"rounds", JobRequest{Kind: KindFuzz, Options: Options{Rounds: huge}}},
		{"top", JobRequest{Kind: KindDiagnose, Builtin: "c17", Options: Options{Top: huge, Inject: "g5 s-a-1"}}},
		{"max_steps", JobRequest{Kind: KindAdvise, Builtin: "c17", Options: Options{MaxSteps: huge}}},
	} {
		j, err := srv.Submit(tc.req)
		if j != nil {
			srv.Cancel(j.ID) //nolint:errcheck // the test fails below either way
		}
		var bad *ErrBadRequest
		if !errors.As(err, &bad) {
			t.Fatalf("%s %d: Submit returned %v, want *ErrBadRequest", tc.field, huge, err)
		}
		if want := fmt.Sprintf("%s %d exceeds the bound", tc.field, huge); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not say %q", tc.field, err, want)
		}
	}
	if _, code, _ := postJob(t, ts.URL, JobRequest{Kind: KindFaultSim, Builtin: "c17", Options: Options{Patterns: huge}}); code != http.StatusBadRequest {
		t.Fatalf("POST with patterns %d: status %d, want 400", huge, code)
	}
	if _, err := srv.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	v, code, e := postJob(t, ts.URL, JobRequest{Kind: KindFaultSim, Builtin: "c17", Options: Options{Patterns: 64}})
	if code != http.StatusAccepted {
		t.Fatalf("normal job: status %d (%s)", code, e.Error)
	}
	waitState(t, ts.URL, v.ID, StateDone)
}

// TestServiceATPGAndTimeout: an atpg job completes with plausible
// coverage, and a microscopic per-job budget cancels rather than
// fails.
func TestServiceATPGAndTimeout(t *testing.T) {
	srv, ts, _ := testServer(t, Config{Workers: 2, QueueDepth: 8})
	defer srv.Shutdown(context.Background())

	v, code, _ := postJob(t, ts.URL, JobRequest{
		Kind: KindATPG, Builtin: "alu74181",
		Options: Options{Random: 64, CompactMode: "reverse"},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got := waitTerminal(t, ts.URL, v.ID)
	if got.State != StateDone {
		t.Fatalf("atpg job: %s (%s)", got.State, got.Error)
	}
	var cov float64
	if err := json.Unmarshal(reportResults(t, got)["coverage"], &cov); err != nil || cov < 0.9 {
		t.Fatalf("atpg coverage = %v (%v)", cov, err)
	}

	v, code, _ = postJob(t, ts.URL, JobRequest{
		Kind: KindATPG, Builtin: "alu74181x", N: 4,
		Options: Options{TimeoutMs: 1},
	})
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	got = waitTerminal(t, ts.URL, v.ID)
	if got.State != StateCancelled {
		t.Fatalf("1ms atpg job: state %s, want cancelled", got.State)
	}
}
