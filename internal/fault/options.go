package fault

import (
	"fmt"
	"runtime"

	"dft/internal/logic"
	"dft/internal/suggest"
	"dft/internal/telemetry"
)

// Backend selects the fault-simulation algorithm behind Simulate. The
// zero value, Auto, picks one from circuit and workload heuristics;
// the selection table lives in DESIGN.md.
type Backend int

const (
	// Auto picks a backend from fault-count, pattern-count and drop
	// heuristics: tiny jobs run serially, fault-heavy gradings trace
	// observability from the good machine, everything else runs on the
	// sharded parallel-pattern engine.
	Auto Backend = iota
	// BackendParallel is the 64-way parallel-pattern single-fault
	// (PPSFP) simulator, sharded across workers on the fault axis.
	BackendParallel
	// BackendSerial simulates one good/faulty machine pair per pattern
	// — the paper's "3001 good machine simulations" cost model. Its
	// good machine runs on the interpreted kernel, so it is the
	// reference every compiled backend is checked against.
	BackendSerial
	// BackendCPT is the critical-path-tracing / observability-
	// propagation backend: per 64-pattern block it computes, from the
	// good-machine pass alone, an observability word for every net
	// (exact on fanout-free regions by chain rule, by explicit
	// complement simulation at reconvergent stems), then grades each
	// fault in O(1) as activation AND observability.
	BackendCPT
)

// backendNames lists every accepted -engine spelling, indexed by
// Backend, for String, parse errors and did-you-mean suggestions.
var backendNames = []string{"auto", "parallel", "serial", "cpt"}

// String names the backend as accepted by the dftc -engine flag.
func (b Backend) String() string {
	if b >= 0 && int(b) < len(backendNames) {
		return backendNames[b]
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a dftc -engine flag value to a Backend. Unknown
// names get a did-you-mean suggestion when an accepted spelling is
// close.
func ParseBackend(s string) (Backend, error) {
	if s == "" {
		return Auto, nil
	}
	for b, n := range backendNames {
		if s == n {
			return Backend(b), nil
		}
	}
	want := "want auto, parallel, cpt or serial"
	if sug := suggest.Closest(s, backendNames); sug != "" {
		return Auto, fmt.Errorf("fault: unknown backend %q (did you mean %q? %s)", s, sug, want)
	}
	return Auto, fmt.Errorf("fault: unknown backend %q (%s)", s, want)
}

// DropMode controls fault dropping. The zero value enables dropping —
// the production configuration — so a zero Options is the fast path.
type DropMode int

const (
	// DropOn removes a fault from further simulation after its first
	// detection: Run's consumer reports the fault done, and the
	// backend's block loop drops it from its live list. Detection
	// outcomes (Detected, DetectedBy) are identical either way;
	// dropping only saves work.
	DropOn DropMode = iota
	// DropOff grades every fault against every pattern on every
	// backend — the ablation setting measuring what dropping buys.
	DropOff
)

// WorkersAuto (the Workers zero value) shards the fault list across
// runtime.GOMAXPROCS(0) workers. Results are bit-identical for every
// worker count, so auto is safe as a default.
const WorkersAuto = 0

// View names the nets the tester controls and observes. The zero value
// selects the primary view (pattern bits over c.PIs, detection at
// c.POs); a full-scan view adds the flip-flops on both sides. Every
// input must be a source element (Input or DFF); source elements not
// listed are held at 0, the toolkit's reset state.
type View struct {
	Inputs  []int
	Outputs []int
}

// isPrimary reports whether the view is the zero value.
func (v View) isPrimary() bool { return v.Inputs == nil && v.Outputs == nil }

// resolve returns the concrete input/output net lists for c.
func (v View) resolve(c *logic.Circuit) (inputs, outputs []int) {
	if v.isPrimary() {
		return c.PIs, c.POs
	}
	return v.Inputs, v.Outputs
}

// Resolve is the exported form of resolve: the concrete input and
// output net lists the engine simulates under this view (the zero
// view selects the primary inputs and outputs). Consumers that build
// per-output structures over the same nets the engine observes — the
// diagnose package's full-response dictionary tier — share the
// resolution rule through it.
func (v View) Resolve(c *logic.Circuit) (inputs, outputs []int) {
	return v.resolve(c)
}

// Options configures Simulate and NewEngine. The zero value is the
// recommended production configuration: automatic backend selection,
// one worker per CPU, fault dropping, the primary view, and the
// process-wide telemetry registry.
//
// The surface has two orthogonal axes: Backend names the algorithm,
// while Workers sizes it. Every combination produces bit-identical
// Results; the knobs only trade time for memory.
type Options struct {
	// Backend selects the simulation algorithm; Auto (zero) picks one.
	Backend Backend
	// Workers is the engine's sharding degree — over faults for
	// BackendParallel, over each block's reconvergent stems for
	// BackendCPT (at most one worker per 16 stems): WorkersAuto (0)
	// means runtime.GOMAXPROCS(0), n ≥ 1 is explicit. Every worker
	// count produces bit-identical Results.
	Workers int
	// Drop controls fault dropping in Run and RunPacked; the zero
	// value drops. RunDetail ignores it: a detail grade needs every
	// detect bit.
	Drop DropMode
	// View selects controllable/observable nets; zero is the primary
	// view.
	View View
	// Metrics receives the run's telemetry; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
	// NoProgress disables the engine's fault.sim.progress tracker (one
	// atomic add per chunk). It exists for the
	// BenchmarkServiceProgressOverhead ablation that measures the
	// instrumentation's cost; production callers leave it false.
	NoProgress bool
}

// workers resolves the Workers field to a concrete count ≥ 1.
func (o Options) workers() int {
	if o.Workers <= WorkersAuto {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}
