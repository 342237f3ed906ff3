package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dft/internal/telemetry"
)

// traceDir receives the span dump of a traced run, relative to the
// directory the benchmark runs from.
const traceDir = ".bench_build/perfbench"

// layers are the packages on the user path that self time is
// attributed to; "unattributed" is the time no span covers.
var layerNames = []string{"logic", "sim", "fault", "atpg", "compact", "advise", "diagnose", "service", "core"}

// tracer hands out span IDs for one traced pass. A nil tracer records
// nothing, and every span method accepts a nil span, so untraced passes
// run the same code.
type tracer struct{ next atomic.Int64 }

// span is one timed interval of a job: a call the benchmark wrapped,
// or a span the program recorded into the job's registry and the
// benchmark grafted beneath the call that produced it.
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent_id,omitempty"`
	Job      string  `json:"job"`
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_unix_ns"`
	EndNs    int64   `json:"end_unix_ns"`
	Children []*span `json:"-"`
	tr       *tracer
}

// root opens a job's top span.
func (t *tracer) root(job, name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.next.Add(1), Job: job, Name: name, StartNs: time.Now().UnixNano(), tr: t}
}

// add attaches a finished child interval.
func (s *span) add(name string, startNs, endNs int64) *span {
	if s == nil {
		return nil
	}
	c := &span{ID: s.tr.next.Add(1), Parent: s.ID, Job: s.Job, Name: name, StartNs: startNs, EndNs: endNs, tr: s.tr}
	s.Children = append(s.Children, c)
	return c
}

// child opens a child span now; end closes it.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.add(name, time.Now().UnixNano(), 0)
}

func (s *span) end() {
	if s != nil {
		s.EndNs = time.Now().UnixNano()
	}
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// graft attaches the program's own span forest (from a job registry's
// trace ring or a run report's trace section) beneath s.
func (s *span) graft(nodes []*telemetry.SpanNode) {
	if s == nil {
		return
	}
	for _, n := range nodes {
		s.add(n.Name, n.StartNs, n.StartNs+n.DurNs).graft(n.Children)
	}
}

// graftRegistry grafts the spans the program recorded into reg.
func (s *span) graftRegistry(reg *telemetry.Registry) {
	if s == nil {
		return
	}
	ev, _ := reg.Trace().Events()
	s.graft(telemetry.BuildSpanTree(ev))
}

// place attaches a program span recorded without a parent (sim.compile
// spans go to the process-wide registry) beneath the deepest span of s
// whose interval contains it. It reports whether one did.
func (s *span) place(name string, startNs, endNs int64) bool {
	if s == nil || startNs < s.StartNs || endNs > s.EndNs {
		return false
	}
	for _, c := range s.Children {
		if c.place(name, startNs, endNs) {
			return true
		}
	}
	s.add(name, startNs, endNs)
	return true
}

// placeCompiles attaches the sim.compile spans in events to whichever
// of roots contains each.
func placeCompiles(roots []*span, events []telemetry.Event) {
	for _, e := range events {
		if e.Name != "sim.compile" {
			continue
		}
		for _, r := range roots {
			if r.place(e.Name, e.StartNs, e.StartNs+e.DurNs) {
				break
			}
		}
	}
}

// layerOf maps a span name to its layer: the package prefix, with the
// job server's per-job "job" span belonging to the service.
func layerOf(name string) string {
	if name == "job" {
		return "service"
	}
	prefix, _, _ := strings.Cut(name, ".")
	for _, l := range layerNames {
		if l == prefix {
			return l
		}
	}
	return "core"
}

// selfTime adds each span's duration minus its children's to its layer.
func (s *span) selfTime(acc map[string]int64) {
	self := s.dur()
	for _, c := range s.Children {
		self -= c.dur()
		c.selfTime(acc)
	}
	if self > 0 {
		acc[layerOf(s.Name)] += self
	}
}

// walk visits s and every span beneath it.
func (s *span) walk(f func(*span)) {
	f(s)
	for _, c := range s.Children {
		c.walk(f)
	}
}

// spanStats sums the durations and counts the spans named name.
func spanStats(recs []*record, name string) (totalMs float64, n int) {
	for _, r := range recs {
		r.span.walk(func(s *span) {
			if s.Name == name {
				totalMs += float64(s.dur()) / 1e6
				n++
			}
		})
	}
	return totalMs, n
}

// layerSelf reports each layer's self time per job over the traced
// jobs, plus the unattributed remainder: the clients' combined wall
// time that no job span covers.
func layerSelf(recs []*record, wall time.Duration, clients int, m metrics) {
	acc := map[string]int64{}
	var covered int64
	for _, r := range recs {
		r.span.selfTime(acc)
		covered += r.span.dur()
	}
	n := float64(len(recs))
	for _, l := range layerNames {
		m.set("self_ms."+l, "ms", float64(acc[l])/1e6/n)
	}
	m.set("self_ms.unattributed", "ms", float64(int64(clients)*wall.Nanoseconds()-covered)/1e6/n)
}

// writeTrace dumps every traced span, flat with parent links and
// ordered by start time, to a JSON file under traceDir.
func writeTrace(file string, recs []*record) error {
	var all []*span
	for _, r := range recs {
		r.span.walk(func(s *span) { all = append(all, s) })
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].StartNs < all[j].StartNs })
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, file))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
