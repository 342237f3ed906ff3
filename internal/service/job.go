// Package service is the DFT-as-a-service layer: a long-lived job
// server exposing the toolkit's jobbed kinds — fault simulation, ATPG,
// diagnosis, advising and differential fuzzing, all run by
// internal/pipeline — as asynchronous HTTP/JSON jobs with a bounded
// FIFO queue, a worker pool, request coalescing, an LRU result cache,
// admission control, and graceful drain. The paper's economics
// motivate it: test generation and fault simulation are the dominant,
// repeatable cost of LSI testing (Eq. 1, T = K·N³), so in a production
// flow they run as a shared service that amortizes compiled-circuit
// state and deduplicates identical requests rather than as one-shot
// CLI processes.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/logic"
	"dft/internal/pipeline"
	"dft/internal/telemetry"
)

// Kind names a job type.
type Kind string

const (
	KindFaultSim Kind = "faultsim"
	KindATPG     Kind = "atpg"
	KindFuzz     Kind = "fuzz"
	KindDiagnose Kind = "diagnose"
	KindAdvise   Kind = "advise"
)

// Options mirrors the dftc flag surface for the jobbed subcommands.
// The zero value of every field selects the CLI default, so a request
// body can carry only what it overrides.
type Options struct {
	// Shared knobs.
	Seed    int64 `json:"seed,omitempty"`
	Workers int   `json:"workers,omitempty"`
	Scan    bool  `json:"scan,omitempty"`
	// TimeoutMs overrides the server's per-job deadline when smaller;
	// jobs can shrink their budget but never exceed the server's.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// faultsim: number of random patterns, backend name
	// (auto|parallel|cpt|serial), and drop
	// ("off" disables fault dropping).
	Patterns int    `json:"patterns,omitempty"`
	Backend  string `json:"backend,omitempty"`
	Drop     string `json:"drop,omitempty"`

	// atpg: engine (podem|dalg), random-first budget, and CompactMode
	// (off|reverse|full), the compaction pipeline. On faultsim jobs
	// CompactMode compacts the graded random set and reports the ratio.
	Engine      string `json:"engine,omitempty"`
	Random      int    `json:"random,omitempty"`
	CompactMode string `json:"compact_mode,omitempty"`

	// fuzz: differential-fuzz rounds (seeds 1..Rounds).
	Rounds int `json:"rounds,omitempty"`

	// diagnose: exactly one of Signature (an observed pass/fail string,
	// '1' = pattern failed, possibly shorter than the dictionary when
	// the tester log was truncated) or Inject (a fault in the
	// fault.ParseFault wire format, e.g. "g12 s-a-0", observed by
	// simulating the defective machine). Top bounds the ranked
	// candidate list (default 10); DictFull additionally stores the
	// per-output full-response tier in the dictionary.
	Signature string `json:"signature,omitempty"`
	Inject    string `json:"inject,omitempty"`
	Top       int    `json:"top,omitempty"`
	DictFull  bool   `json:"dict_full,omitempty"`

	// advise: coverage target in [0,1], DFT area budget as a fraction
	// of the original circuit size, and the iteration cap. Zero values
	// select the advisor defaults (0.99 / 0.5 / 32).
	Target   float64 `json:"target,omitempty"`
	Budget   float64 `json:"budget,omitempty"`
	MaxSteps int     `json:"max_steps,omitempty"`
}

// JobRequest is the POST /v1/jobs body. The circuit comes either
// inline (Bench, ISCAS-85 .bench text) or by library generator name
// (Builtin + optional size N); fuzz jobs need neither.
type JobRequest struct {
	Kind    Kind    `json:"kind"`
	Bench   string  `json:"bench,omitempty"`
	Builtin string  `json:"builtin,omitempty"`
	N       int     `json:"n,omitempty"`
	Options Options `json:"options,omitempty"`
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// parsedRequest is a validated request: its pipeline spec, the
// instantiated circuit (nil for fuzz), its display name, the hash of
// its canonical netlist, and the dedup key.
type parsedRequest struct {
	req     JobRequest
	spec    interface{ Validate() error }
	circuit *logic.Circuit
	input   string // report Input field: builtin name or "inline"
	netSHA  string // hex sha256 of logic.CanonicalBench(circuit); "" for fuzz
	key     string
}

// parseRequest turns a request into its pipeline spec, validates it,
// resolves its circuit and hashes its canonical netlist once, outside
// the server lock. Inline .bench payloads go through core.LoadString so
// they get the same structural checks as CLI file loads.
func parseRequest(req JobRequest) (*parsedRequest, error) {
	o := req.Options
	p := &parsedRequest{req: req}
	switch req.Kind {
	case KindFaultSim:
		p.spec = pipeline.FaultSim{Patterns: o.Patterns, Seed: o.Seed, Scan: o.Scan, Backend: o.Backend,
			Drop: o.Drop, CompactMode: o.CompactMode, Workers: o.Workers}
	case KindATPG:
		p.spec = pipeline.ATPG{Engine: o.Engine, Random: o.Random, CompactMode: o.CompactMode,
			Seed: o.Seed, Scan: o.Scan, Workers: o.Workers}
	case KindDiagnose:
		// A job cannot keep its dictionary the way `dftc diagnose
		// -save` does, so it must have evidence to diagnose.
		if o.Signature == "" && o.Inject == "" {
			return nil, fmt.Errorf("diagnose jobs need a signature or an inject fault")
		}
		p.spec = pipeline.Diagnose{Patterns: o.Patterns, Seed: o.Seed, Scan: o.Scan, Backend: o.Backend,
			Workers: o.Workers, CompactMode: o.CompactMode, Full: o.DictFull, Inject: o.Inject,
			Signature: o.Signature, Top: o.Top}
	case KindAdvise:
		if o.Scan {
			return nil, fmt.Errorf("advise jobs choose their own scan elements; drop scan")
		}
		p.spec = pipeline.Advise{Target: o.Target, Budget: o.Budget, MaxSteps: o.MaxSteps,
			Patterns: o.Patterns, Seed: o.Seed, Workers: o.Workers}
	case KindFuzz:
		p.spec = pipeline.Fuzz{Rounds: o.Rounds, Patterns: o.Patterns}
	case "":
		return nil, fmt.Errorf("missing kind (want faultsim, atpg, fuzz, diagnose or advise)")
	default:
		return nil, fmt.Errorf("unknown kind %q (want faultsim, atpg, fuzz, diagnose or advise)", req.Kind)
	}
	if o.TimeoutMs < 0 {
		return nil, fmt.Errorf("timeout_ms %d is negative", o.TimeoutMs)
	}
	if req.Kind != KindAdvise && (o.Target != 0 || o.Budget != 0 || o.MaxSteps != 0) {
		return nil, fmt.Errorf("target/budget/max_steps only apply to advise jobs")
	}
	if req.Kind != KindDiagnose && (o.Signature != "" || o.Inject != "") {
		return nil, fmt.Errorf("signature/inject only apply to diagnose jobs")
	}
	if err := p.spec.Validate(); err != nil {
		return nil, err
	}

	switch {
	case req.Kind == KindFuzz:
		if req.Bench != "" || req.Builtin != "" {
			return nil, fmt.Errorf("fuzz jobs generate their own circuits; drop bench/builtin")
		}
	case req.Bench != "" && req.Builtin != "":
		return nil, fmt.Errorf("give bench or builtin, not both")
	case req.Builtin != "":
		c, err := circuits.Builtin(req.Builtin, req.N)
		if err != nil {
			return nil, err
		}
		p.circuit = c
		p.input = req.Builtin
	case req.Bench != "":
		d, err := core.LoadString("inline", req.Bench)
		if err != nil {
			return nil, err
		}
		p.circuit = d.Circuit
		p.input = "inline"
	default:
		return nil, fmt.Errorf("%s jobs need a circuit: bench or builtin", req.Kind)
	}
	if p.circuit != nil {
		sum := sha256.Sum256([]byte(logic.CanonicalBench(p.circuit)))
		p.netSHA = hex.EncodeToString(sum[:])
	}
	p.key = requestKey(req.Kind, p.netSHA, req.Options)
	return p, nil
}

// requestKey builds the coalescing/cache key: kind, the hash of the
// circuit's canonical .bench rendering (so equivalent inline and
// builtin submissions of the same netlist collide, and the collapsed
// fault list — a pure function of the netlist — is covered), and the
// canonical JSON of the options. TimeoutMs is excluded: the deadline
// bounds the work, it does not change the answer, and letting it
// split the key would defeat coalescing between impatient and
// patient clients.
func requestKey(kind Kind, netSHA string, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s\nnet=%s\n", kind, netSHA)
	opts.TimeoutMs = 0
	enc, _ := json.Marshal(opts)
	h.Write(enc)
	return hex.EncodeToString(h.Sum(nil))
}

// Cancellation reasons recorded in cancel_reason: who or what killed
// the job.
const (
	CancelClient   = "client"   // DELETE /v1/jobs/{id}
	CancelDeadline = "deadline" // job or server deadline expired
	CancelShutdown = "shutdown" // server drain or hard stop
)

// Job is one admitted request moving through the queue. All mutable
// fields are guarded by the owning server's mu; reg and events are
// set once at admission and safe to use without it.
type Job struct {
	ID  string
	Key string

	parsed *parsedRequest

	state        State
	err          string
	report       []byte // finished dft.run-report/v1 document
	cached       bool   // served from the result cache
	coalesced    int    // extra submissions attached to this job
	cancelReason string // CancelClient/CancelDeadline/CancelShutdown

	created  time.Time
	started  time.Time
	finished time.Time

	// reg is the job's private telemetry registry: the compute kernels
	// write spans and progress into it, the monitor goroutine samples
	// it, and the finished report embeds its snapshot. Nil for jobs
	// synthesized from the result cache (they never run).
	reg *telemetry.Registry
	// events is the job's live event log backing GET .../events.
	events *eventLog

	cancel func()        // non-nil while cancellable
	done   chan struct{} // closed on terminal state

	// checkpoint holds the latest per-iteration snapshot of a
	// long-running job (advise plans, marshalled by the Checkpoint
	// hook). Written only by the job's own worker goroutine while the
	// job runs, read by the same goroutine after execute returns; a
	// cancelled job attaches it as its report so clients still get the
	// partial plan. Never enters the result cache (finishLocked caches
	// StateDone reports only).
	checkpoint []byte
}

// JobView is the JSON rendering of a job's state returned by the
// HTTP API.
type JobView struct {
	ID           string          `json:"id"`
	Kind         Kind            `json:"kind"`
	State        State           `json:"state"`
	Cached       bool            `json:"cached,omitempty"`
	Coalesced    int             `json:"coalesced,omitempty"`
	Error        string          `json:"error,omitempty"`
	CreatedNs    int64           `json:"created_unix_ns"`
	WaitNs       int64           `json:"wait_ns,omitempty"`
	RunNs        int64           `json:"run_ns,omitempty"`
	CancelledNs  int64           `json:"cancelled_unix_ns,omitempty"`
	CancelReason string          `json:"cancel_reason,omitempty"`
	Report       json.RawMessage `json:"report,omitempty"`
}

// view renders the job under the server lock.
func (j *Job) view() JobView {
	v := JobView{
		ID:        j.ID,
		Kind:      j.parsed.req.Kind,
		State:     j.state,
		Cached:    j.cached,
		Coalesced: j.coalesced,
		Error:     j.err,
		CreatedNs: j.created.UnixNano(),
		Report:    json.RawMessage(j.report),
	}
	if !j.started.IsZero() {
		v.WaitNs = j.started.Sub(j.created).Nanoseconds()
		if !j.finished.IsZero() {
			v.RunNs = j.finished.Sub(j.started).Nanoseconds()
		}
	}
	if j.state == StateCancelled {
		v.CancelledNs = j.finished.UnixNano()
		v.CancelReason = j.cancelReason
	}
	return v
}
