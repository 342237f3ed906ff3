package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Config sizes the server. Zero values select the documented
// defaults, so Config{} is a working development configuration.
type Config struct {
	// Workers is the job-execution pool size; 0 selects
	// runtime.GOMAXPROCS(0). Each worker runs one job at a time; the
	// fault engine inside a job shards further per its own Workers
	// option.
	Workers int
	// QueueDepth bounds the FIFO admission queue; 0 selects 64. A
	// full queue rejects new jobs with ErrQueueFull (HTTP 429).
	QueueDepth int
	// JobTimeout is the per-job deadline; 0 means no limit. A request
	// may shrink (never extend) its own budget via Options.TimeoutMs.
	JobTimeout time.Duration
	// CacheSize bounds the LRU result cache (finished run reports),
	// and the circuit interner is sized to match; 0 selects 256.
	CacheSize int
	// MaxJobs bounds the retained job table; once exceeded, finished
	// jobs are evicted in finish order, oldest first (their results
	// may still be served from the cache under a new job ID). Queued
	// and running jobs are never evicted. 0 selects 4096.
	MaxJobs int
	// Metrics receives the service.* telemetry and backs /metrics;
	// nil selects telemetry.Default().
	Metrics *telemetry.Registry
	// ProgressInterval throttles the per-job monitor's sampling of
	// phase/progress events onto the SSE stream; 0 selects 100ms.
	ProgressInterval time.Duration
	// HeartbeatInterval paces heartbeat events on otherwise-quiet
	// streams; 0 selects 5s.
	HeartbeatInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 100 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 5 * time.Second
	}
	return c
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity; the HTTP layer renders it as 429 with the depth attached.
type ErrQueueFull struct {
	Depth    int
	Capacity int
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("service: queue full (%d/%d jobs queued)", e.Depth, e.Capacity)
}

// ErrDraining rejects submissions after Shutdown has begun.
var ErrDraining = errors.New("service: draining, not admitting new jobs")

// ErrBadRequest wraps a request-validation failure (HTTP 400).
type ErrBadRequest struct{ Err error }

func (e *ErrBadRequest) Error() string { return e.Err.Error() }
func (e *ErrBadRequest) Unwrap() error { return e.Err }

// ErrUnknownJob reports a job ID with no retained record.
var ErrUnknownJob = errors.New("service: unknown job")

// Server is the DFT job service: admission control in front of a
// bounded FIFO queue, a fixed worker pool draining it, a result
// cache, and an HTTP surface (see routes in http.go). Create with
// New, serve via ServeHTTP, stop with Shutdown.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	mux *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	finished []string        // terminal job IDs in finish order, for pruning
	inflight map[string]*Job // request key → queued/running job
	results  *lruCache       // request key → report bytes
	interned *lruCache       // netlist hash → *logic.Circuit
	dicts    *lruCache       // dictionary key → pipeline.DictBuild
	seq      int64

	// queue holds the live queued jobs in admission order: Cancel
	// takes a job out of it, so admission and positions count only
	// jobs still waiting. ready wakes a worker when a job arrives or
	// draining starts.
	queue []*Job
	ready sync.Cond
	wg    sync.WaitGroup

	// cached instrument handles
	cAccepted   *telemetry.Counter
	cRejected   *telemetry.Counter
	cCompleted  *telemetry.Counter
	cFailed     *telemetry.Counter
	cPanics     *telemetry.Counter
	cCancelled  *telemetry.Counter
	cCoalesced  *telemetry.Counter
	cCacheHit   *telemetry.Counter
	cCacheMiss  *telemetry.Counter
	cCacheEvict *telemetry.Counter
	cDictHit    *telemetry.Counter
	cDictMiss   *telemetry.Counter
	gQueueDepth *telemetry.Gauge
	gQueueAge   *telemetry.Gauge
	gWorkers    *telemetry.Gauge
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.OrDefault(cfg.Metrics)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		results:    newLRU(cfg.CacheSize),
		interned:   newLRU(cfg.CacheSize),
		dicts:      newLRU(cfg.CacheSize),

		cAccepted:   reg.Counter("service.jobs.accepted"),
		cRejected:   reg.Counter("service.jobs.rejected"),
		cCompleted:  reg.Counter("service.jobs.completed"),
		cFailed:     reg.Counter("service.jobs.failed"),
		cPanics:     reg.Counter("service.job.panics"),
		cCancelled:  reg.Counter("service.jobs.cancelled"),
		cCoalesced:  reg.Counter("service.jobs.coalesced"),
		cCacheHit:   reg.Counter("service.cache.hits"),
		cCacheMiss:  reg.Counter("service.cache.misses"),
		cCacheEvict: reg.Counter("service.cache.evictions"),
		cDictHit:    reg.Counter("service.dict.hits"),
		cDictMiss:   reg.Counter("service.dict.misses"),
		gQueueDepth: reg.Gauge("service.queue.depth"),
		gQueueAge:   reg.Gauge("service.queue.age_ms"),
		gWorkers:    reg.Gauge("service.workers"),
	}
	s.ready.L = &s.mu
	s.gWorkers.Set(int64(cfg.Workers))
	s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and admits a request. The returned job may be
// brand new (queued), an existing in-flight job the request coalesced
// onto, or an already-done job synthesized from the result cache.
// Errors are *ErrBadRequest, *ErrQueueFull, or ErrDraining.
func (s *Server) Submit(req JobRequest) (*Job, error) {
	p, err := parseRequest(req)
	if err != nil {
		s.cRejected.Inc()
		return nil, &ErrBadRequest{Err: err}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.cRejected.Inc()
		return nil, ErrDraining
	}
	s.internCircuit(p)

	// Coalesce onto an identical queued/running job.
	if j, ok := s.inflight[p.key]; ok {
		j.coalesced++
		s.cCoalesced.Inc()
		return j, nil
	}
	// Serve a finished identical request from the result cache.
	if rep, ok := s.results.get(p.key); ok {
		s.cCacheHit.Inc()
		now := time.Now()
		j := &Job{
			ID:       s.nextID(),
			Key:      p.key,
			parsed:   p,
			state:    StateDone,
			report:   rep.([]byte),
			cached:   true,
			created:  now,
			started:  now,
			finished: now,
			events:   newEventLog(),
			done:     make(chan struct{}),
		}
		// A cached job is born terminal; its stream replays instantly.
		j.events.publish(JobEvent{Type: EventQueued, State: StateQueued})
		j.events.publish(JobEvent{Type: EventEnd, State: StateDone})
		j.events.close()
		close(j.done)
		s.remember(j)
		s.cAccepted.Inc()
		s.cCompleted.Inc()
		return j, nil
	}
	s.cCacheMiss.Inc()

	j := &Job{
		ID:      s.nextID(),
		Key:     p.key,
		parsed:  p,
		state:   StateQueued,
		created: time.Now(),
		reg:     telemetry.NewRegistry(),
		events:  newEventLog(),
		done:    make(chan struct{}),
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.cRejected.Inc()
		return nil, &ErrQueueFull{Depth: len(s.queue), Capacity: s.cfg.QueueDepth}
	}
	s.queue = append(s.queue, j)
	s.ready.Signal()
	s.remember(j)
	s.inflight[p.key] = j
	s.cAccepted.Inc()
	s.gQueueDepth.Set(int64(len(s.queue)))
	// Workers dequeue under mu too, so the position is the job's place
	// in line at admission.
	j.events.publish(JobEvent{Type: EventQueued, State: StateQueued, Position: len(s.queue)})
	return j, nil
}

// internCircuit replaces the parsed circuit with the canonical
// instance for its netlist, so every job over the same netlist shares
// one *logic.Circuit — and therefore one compiled program in
// sim.CompiledFor's cache — across the whole server lifetime. It keys
// on the netlist hash parseRequest computed outside the lock.
func (s *Server) internCircuit(p *parsedRequest) {
	if p.circuit == nil {
		return
	}
	if c, ok := s.interned.get(p.netSHA); ok {
		p.circuit = c.(*logic.Circuit)
		return
	}
	s.interned.add(p.netSHA, p.circuit)
}

// nextID mints a job ID; callers hold mu.
func (s *Server) nextID() string {
	s.seq++
	return fmt.Sprintf("job-%06d", s.seq)
}

// remember records a job and evicts the earliest-finished jobs past
// the retention cap; callers hold mu. Every job enters and leaves the
// finish-order FIFO once, so pruning is amortised O(1) per submission.
func (s *Server) remember(j *Job) {
	s.jobs[j.ID] = j
	if j.state.terminal() { // a cache hit is born finished
		s.finished = append(s.finished, j.ID)
	}
	for len(s.jobs) > s.cfg.MaxJobs && len(s.finished) > 0 {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// Job returns the retained job record for id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j, nil
}

// View renders a job's current state.
func (s *Server) View(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	return j.view(), nil
}

// Cancel aborts a job: a queued job leaves the queue and is marked
// cancelled on the spot, a running job has its context
// cancelled and reaches the cancelled state when the engine unwinds.
// Cancelling a terminal job is a no-op. Note a coalesced job is
// shared — cancelling it cancels every submission attached to it.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		s.unqueue(j)
		j.cancelReason = CancelClient
		s.finishLocked(j, StateCancelled, context.Canceled.Error(), nil)
	case StateRunning:
		// Record who asked before the context unwinds, so runJob's
		// terminal switch can tell a DELETE from a deadline.
		j.cancelReason = CancelClient
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.view(), nil
}

// finishLocked moves a job to a terminal state; callers hold mu.
func (s *Server) finishLocked(j *Job, st State, errMsg string, report []byte) {
	if j.state.terminal() {
		return
	}
	j.state = st
	j.err = errMsg
	j.report = report
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	delete(s.inflight, j.Key)
	s.finished = append(s.finished, j.ID)
	switch st {
	case StateDone:
		s.cCompleted.Inc()
		if report != nil {
			if s.results.add(j.Key, report) {
				s.cCacheEvict.Inc()
			}
		}
	case StateCancelled:
		s.cCancelled.Inc()
	default:
		s.cFailed.Inc()
	}
	if j.events != nil {
		j.events.publish(JobEvent{
			Type:         EventEnd,
			State:        st,
			Error:        errMsg,
			CancelReason: j.cancelReason,
		})
		j.events.close()
	}
	close(j.done)
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (JobView, error) {
	j, err := s.Job(id)
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-j.done:
		return s.View(id)
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// unqueue takes a queued job out of the queue; callers hold mu.
func (s *Server) unqueue(j *Job) {
	if i := slices.Index(s.queue, j); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
		s.gQueueDepth.Set(int64(len(s.queue)))
	}
}

// worker runs queued jobs until Shutdown has started and the queue
// is empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining {
			s.ready.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		s.gQueueDepth.Set(int64(len(s.queue)))
		s.runJob(j) // unlocks mu
	}
}

// runJob executes one dequeued job under its deadline, with the
// monitor goroutine streaming its phase/progress onto the event log
// for as long as it runs. The caller holds mu; runJob releases it
// while the job runs.
func (s *Server) runJob(j *Job) {
	kind := string(j.parsed.req.Kind)
	j.state = StateRunning
	j.started = time.Now()
	s.reg.Histogram(telemetry.Label("service.job.queue_wait_ms", "kind", kind)).
		Observe(j.started.Sub(j.created).Milliseconds())
	ctx, cancel := s.jobContext(j)
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	j.events.publish(JobEvent{Type: EventRunning, State: StateRunning})

	stop := make(chan struct{})
	monDone := make(chan struct{})
	go s.monitor(j, stop, monDone)

	rep, err := s.executeRecovered(ctx, j)
	var report []byte
	if err == nil {
		report, err = encodeReport(rep)
	}

	// Stop the monitor (it flushes one last sample) before publishing
	// the terminal event, so subscribers never see progress after end.
	close(stop)
	<-monDone

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	s.reg.Histogram(telemetry.Label("service.job.duration_ms", "kind", kind)).
		Observe(time.Since(j.started).Milliseconds())
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, "", report)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if j.cancelReason == "" {
			switch {
			case errors.Is(err, context.DeadlineExceeded):
				j.cancelReason = CancelDeadline
			case s.draining:
				j.cancelReason = CancelShutdown
			default:
				j.cancelReason = CancelClient
			}
		}
		// A long-running job that checkpointed (advise) keeps its last
		// per-iteration snapshot as the cancelled report.
		s.finishLocked(j, StateCancelled, err.Error(), j.checkpoint)
	default:
		s.finishLocked(j, StateFailed, err.Error(), nil)
	}
}

// executeRecovered is execute with a panic on the job's goroutine
// turned into the job's error, which carries the panic value and the
// stack, and counted in service.job.panics: a bug one request reaches
// fails that job, and the worker goes on to the next.
func (s *Server) executeRecovered(ctx context.Context, j *Job) (rep *telemetry.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cPanics.Inc()
			rep, err = nil, fmt.Errorf("internal error: panic: %v\n%s", r, debug.Stack())
		}
	}()
	return s.execute(ctx, j)
}

// jobContext derives the job's run context: the server's base context
// (so Shutdown's hard-stop cancels everything) bounded by the
// server-wide deadline, shrunk further by the request's own budget.
func (s *Server) jobContext(j *Job) (context.Context, context.CancelFunc) {
	d := s.cfg.JobTimeout
	if ms := j.parsed.req.Options.TimeoutMs; ms > 0 {
		if req := time.Duration(ms) * time.Millisecond; d <= 0 || req < d {
			d = req
		}
	}
	if d <= 0 {
		return context.WithCancel(s.baseCtx)
	}
	return context.WithTimeout(s.baseCtx, d)
}

// QueueDepth reports the number of jobs waiting in the admission
// queue; cancelled jobs have left it.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// updateQueueAge refreshes the service.queue.age_ms gauge: the age of
// the oldest still-queued job (the queue's head), 0 for an empty
// queue. Computed at scrape time (handleMetrics) instead of
// continuously — an age gauge only means anything at the moment it is
// read.
func (s *Server) updateQueueAge() {
	s.mu.Lock()
	var oldest time.Time
	if len(s.queue) > 0 {
		oldest = s.queue[0].created
	}
	s.mu.Unlock()
	if oldest.IsZero() {
		s.gQueueAge.Set(0)
		return
	}
	s.gQueueAge.Set(time.Since(oldest).Milliseconds())
}

// Shutdown gracefully stops the server: admission closes (new
// submissions get ErrDraining), queued and running jobs drain, and
// the accumulated telemetry is flushed as a final dft.run-report/v1
// document. If ctx expires before the drain completes, queued jobs
// are cancelled in place, running jobs are hard-cancelled through the
// base context, and Shutdown
// still waits for the workers to unwind before returning, so no job
// goroutine outlives the call.
func (s *Server) Shutdown(ctx context.Context) (*telemetry.Report, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errors.New("service: already shut down")
	}
	s.draining = true
	s.ready.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Jobs still queued are cancelled where they wait; running
		// ones are hard-stopped.
		s.mu.Lock()
		for _, j := range s.queue {
			j.cancelReason = CancelShutdown
			s.finishLocked(j, StateCancelled, ErrDraining.Error(), nil)
		}
		s.queue = s.queue[:0]
		s.gQueueDepth.Set(0)
		s.mu.Unlock()
		s.baseCancel()
		<-done
	}
	s.baseCancel()

	rep := telemetry.NewReport("dftd", "shutdown", "")
	rep.Config = map[string]any{
		"workers":     s.cfg.Workers,
		"queue_depth": s.cfg.QueueDepth,
		"cache_size":  s.cfg.CacheSize,
	}
	rep.Results = map[string]any{
		"jobs_accepted":  s.cAccepted.Value(),
		"jobs_rejected":  s.cRejected.Value(),
		"jobs_completed": s.cCompleted.Value(),
		"jobs_failed":    s.cFailed.Value(),
		"jobs_cancelled": s.cCancelled.Value(),
		"jobs_coalesced": s.cCoalesced.Value(),
		"cache_hits":     s.cCacheHit.Value(),
		"cache_misses":   s.cCacheMiss.Value(),
	}
	return rep.Finish(s.reg), err
}
