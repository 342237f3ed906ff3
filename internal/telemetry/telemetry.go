// Package telemetry is the toolkit's zero-dependency observability
// layer: atomic counters and gauges, duration timers with min/max/mean
// aggregation, size-bucketed histograms, and a lightweight span/event
// trace backed by a fixed ring buffer.
//
// The package serves two audiences. The algorithm packages (atpg,
// fault, sim, lfsr, signature, core) record how much work they do —
// decisions, backtracks, gate evaluations, clocks — against either an
// injected *Registry or the process-wide Default one. The CLI and the
// benchmark harness read the accumulated state back as a Snapshot,
// render it for humans, or embed it in a machine-readable run Report.
//
// The survey's cost claims (Eq. 1's T = K·N³ foremost) are claims
// about operation counts, so the instrumented quantities are chosen to
// line up with the paper's accounting: fault-simulation events map to
// "good machine simulations", ATPG backtracks to the bounded search
// effort, LFSR clocks to test-application time.
//
// Hot-path discipline: instrumented loops accumulate into plain local
// variables and flush once per block/run with a single atomic add, so
// enabling telemetry costs a handful of atomics per thousands of gate
// evaluations.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any batch size accumulated locally by a hot
// loop; negative deltas are not meaningful for counters but are not
// policed).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (worker counts, live fault
// lists, ring occupancy).
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer aggregates durations: count, total, min, max (mean is derived
// at snapshot time). It is safe for concurrent Observe calls.
type Timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe folds one duration into the aggregate.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.total += d
	t.mu.Unlock()
}

// Time starts a stopwatch; the returned func observes the elapsed
// duration when called, so `defer timer.Time()()` brackets a region.
func (t *Timer) Time() func() {
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

func (t *Timer) reset() {
	t.mu.Lock()
	t.count, t.total, t.min, t.max = 0, 0, 0, 0
	t.mu.Unlock()
}

// Stats returns the aggregate under the lock.
func (t *Timer) Stats() TimerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TimerStat{
		Count:   t.count,
		TotalNs: t.total.Nanoseconds(),
		MinNs:   t.min.Nanoseconds(),
		MaxNs:   t.max.Nanoseconds(),
	}
	if t.count > 0 {
		s.MeanNs = s.TotalNs / t.count
	}
	return s
}

// histBuckets is the number of power-of-two histogram buckets: bucket
// i counts observations with upper bound 2^i - 1 (bucket 0 holds the
// zeros), and the last bucket is unbounded.
const histBuckets = 33

// Histogram is a size-bucketed (power-of-two) histogram for counts
// such as pattern-set sizes, backtracks per fault, or fanout widths.
// Buckets are atomic so concurrent Observe calls need no lock.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 2^(b-1) <= v < 2^b, so v <= 2^b - 1
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Stats returns the non-empty buckets.
func (h *Histogram) Stats() HistStat {
	s := HistStat{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		ub := int64(-1) // unbounded last bucket
		if i < histBuckets-1 {
			ub = int64(1)<<uint(i) - 1
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: ub, Count: n})
	}
	return s
}

// Registry holds named instruments. The zero value is not usable; use
// NewRegistry or the package Default. All methods are safe for
// concurrent use; instrument handles returned by the getters are
// stable and may be cached by hot loops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
	progress map[string]*Progress
	trace    *Trace

	// Span bookkeeping: IDs are allocated from spanSeq; in-flight
	// spans live in active until End, so a live monitor can read the
	// current phase (ActiveSpans) while the work runs.
	spanSeq  atomic.Int64
	activeMu sync.Mutex
	active   map[int64]*Span
}

// NewRegistry creates an empty registry with the default trace
// capacity.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*Histogram),
		progress: make(map[string]*Progress),
		trace:    NewTrace(DefaultTraceCap),
	}
}

var std = NewRegistry()

// Default returns the process-wide registry the CLI's -stats flag
// reports on.
func Default() *Registry { return std }

// OrDefault resolves an injectable handle: nil selects the Default
// registry, so library configs can leave the field unset.
func OrDefault(r *Registry) *Registry {
	if r == nil {
		return std
	}
	return r
}

// instrument returns the named instrument of m, creating it on first
// use. Reset zeroes instruments in place and never removes them, so a
// returned handle stays valid for the registry's lifetime.
func instrument[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = new(T)
	m[name] = v
	return v
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter { return instrument(r, r.counters, name) }

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge { return instrument(r, r.gauges, name) }

// Timer returns (creating on first use) the named timer.
func (r *Registry) Timer(name string) *Timer { return instrument(r, r.timers, name) }

// Histogram returns (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram { return instrument(r, r.hists, name) }

// Progress returns (creating on first use) the named progress
// tracker.
func (r *Registry) Progress(name string) *Progress { return instrument(r, r.progress, name) }

// ProgressStats returns a point-in-time copy of every progress
// tracker — the cheap polling surface for live monitors (no timer or
// histogram locks, no trace copy, just atomic loads per tracker).
func (r *Registry) ProgressStats() map[string]ProgressStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]ProgressStat, len(r.progress))
	for k, p := range r.progress {
		done, total := p.Value()
		out[k] = ProgressStat{Done: done, Total: total}
	}
	return out
}

// Trace returns the registry's event trace.
func (r *Registry) Trace() *Trace { return r.trace }

// Reset zeroes every instrument in place and empties the trace.
// Instruments stay registered and previously returned handles remain
// live, so hot loops may cache handles across Resets. Used between
// profile phases and by tests.
func (r *Registry) Reset() {
	r.mu.RLock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, t := range r.timers {
		t.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, p := range r.progress {
		p.reset()
	}
	r.mu.RUnlock()
	r.trace.Reset()
}
