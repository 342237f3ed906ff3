package fault

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// Simulate is the toolkit's single fault-simulation entry point: it
// grades the pattern set against the fault list under Options and
// returns per-fault outcomes. Every configuration — any backend, any
// worker count — produces bit-identical Results
// (same Detected, DetectedBy first-pattern indices, NumCaught),
// because per-fault outcomes are independent; the options only trade
// time for memory.
func Simulate(ctx context.Context, c *logic.Circuit, faults []Fault, patterns [][]bool, opts Options) (*Result, error) {
	return NewEngine(c, opts).Run(ctx, faults, patterns)
}

// Engine is a sharded multicore PPSFP fault-simulation scheduler. It
// builds one immutable topology of the circuit and owns one
// ParallelSim per worker slot — the expensive per-simulation state
// (good and faulty words, level buckets) — and reuses them across
// runs, chunks and session blocks, so the inner loops allocate
// nothing. Worker goroutines are scattered per run and
// joined before Run returns; the fault list is dealt out in dynamic
// chunks through an atomic cursor, which absorbs the load skew fault
// dropping creates across shards.
//
// An Engine is not safe for concurrent use; create one per goroutine.
// Result merging needs no locks: each chunk owns a disjoint range of
// the result arrays, so workers write their outcomes directly.
type Engine struct {
	c        *logic.Circuit
	opts     Options
	inputs   []int
	outputs  []int
	workers  int
	reg      *telemetry.Registry
	sims     []*ParallelSim // per worker slot, built lazily
	topoOnce sync.Once
	topo     *topology // flat netlist under the view, shared read-only
	obs      []uint64  // cpt observability words, one per net
}

// NewEngine prepares an engine for the circuit under the given
// options. Construction is cheap; the topology and per-worker
// simulators are built on first use.
func NewEngine(c *logic.Circuit, opts Options) *Engine {
	inputs, outputs := opts.View.resolve(c)
	w := opts.workers()
	reg := telemetry.OrDefault(opts.Metrics)
	// Surface the compiled kernel's netlist-reduction stats on the
	// run's own registry, so per-job run reports show how much smaller
	// the simulated circuit is than the source netlist.
	p := sim.CompiledFor(c)
	reg.Gauge("sim.compile.folded_gates").Set(int64(p.Folded()))
	reg.Gauge("sim.compile.hashed_gates").Set(int64(p.Hashed()))
	return &Engine{
		c:       c,
		opts:    opts,
		inputs:  inputs,
		outputs: outputs,
		workers: w,
		reg:     reg,
		sims:    make([]*ParallelSim, w),
	}
}

// drop reports whether fault dropping is enabled.
func (e *Engine) drop() bool { return e.opts.Drop == DropOn }

// topology returns the engine's flat netlist, built once.
func (e *Engine) topology() *topology {
	e.topoOnce.Do(func() { e.topo = newTopology(e.c, e.outputs) })
	return e.topo
}

// sim returns worker slot wi's simulator, building it on first use.
// Distinct slots are touched only by their own worker goroutine.
func (e *Engine) sim(wi int) *ParallelSim {
	if e.sims[wi] == nil {
		e.sims[wi] = newParallelSim(e.c, e.topology(), e.inputs)
	}
	return e.sims[wi]
}

// Run simulates the fault list against the pattern set, honoring
// context cancellation between pattern blocks. On cancellation it
// returns ctx's error and no Result.
func (e *Engine) Run(ctx context.Context, faults []Fault, patterns [][]bool) (*Result, error) {
	return e.RunPacked(ctx, faults, PackPatternSet(len(e.inputs), patterns))
}

// RunPacked is Run for a pattern set already in packed PPSFP form —
// the natural input of the exhaustive 2^N consumers (syndrome, Walsh,
// autonomous testing), which synthesize blocks from periodic masks
// without ever materializing scalar vectors. Every backend reads the
// shared blocks read-only. Its consumer of the backend's detect words
// keeps only each fault's first detection, and reports the fault done
// when dropping is on, so memory stays O(faults) however long the set.
func (e *Engine) RunPacked(ctx context.Context, faults []Fault, pats *PackedPatterns) (*Result, error) {
	res := newResult(faults, pats.NumPatterns())
	drop := e.drop()
	err := e.grade(ctx, faults, pats, false, func(fi, bi int, det uint64) bool {
		if !res.Detected[fi] {
			res.Detected[fi] = true
			res.DetectedBy[fi] = bi*64 + bits.TrailingZeros64(det)
		}
		return drop
	})
	if err != nil {
		return nil, err
	}
	for _, d := range res.Detected {
		if d {
			res.NumCaught++
		}
	}
	e.reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
	return res, nil
}

// emitFunc consumes one fault's nonzero detect word for one 64-pattern
// block: bit p of det is set when pattern bi*64+p detects fault fi.
// Returning done drops the fault from the rest of the run. Calls for
// distinct faults may run concurrently; calls for one fault arrive in
// block order from one goroutine.
type emitFunc func(fi, bi int, det uint64) (done bool)

// grade is the preamble RunPacked and RunDetail share: it checks the
// pattern width, resolves the backend, opens the run's span, runs the
// backend's one block loop with emit as its consumer and records the
// run's counters. A detail grade (detail set) never drops, always
// names its span fault.sim.detail, and runs on PPSFP where Auto would
// pick serial; an empty detail grade opens no span.
func (e *Engine) grade(ctx context.Context, faults []Fault, pats *PackedPatterns, detail bool, emit emitFunc) error {
	if pats.NumInputs() != len(e.inputs) {
		panic(fmt.Sprintf("fault: packed patterns are %d wide for %d view inputs", pats.NumInputs(), len(e.inputs)))
	}
	nPats := pats.NumPatterns()
	if detail && (len(faults) == 0 || nPats == 0) {
		return nil
	}
	drop := e.drop() && !detail
	be, auto := e.backend(len(faults), nPats, drop)
	if detail && auto && be == BackendSerial {
		be = BackendParallel
	}
	name := "fault.sim.engine"
	switch {
	case detail:
		name = "fault.sim.detail"
	case be == BackendSerial:
		name = "fault.sim.serial"
	case be == BackendCPT:
		name = "fault.sim.cpt"
	}
	ctx, span := e.startSpan(ctx, name, be, auto, len(faults), nPats)
	defer span.End()
	var err error
	switch be {
	case BackendSerial:
		err = e.runSerial(ctx, span, faults, pats, emit)
	case BackendCPT:
		err = e.cptBlocks(ctx, span, faults, pats, emit)
	default:
		err = e.shardFaults(ctx, span, faults, pats, drop, emit)
	}
	if err != nil {
		e.reg.Counter("fault.engine.cancelled").Inc()
		return err
	}
	if detail {
		e.reg.Counter("fault.sim.detail_runs").Inc()
	}
	e.reg.Counter("fault.sim.patterns").Add(int64(nPats))
	return nil
}

// backend resolves Options.Backend for one job: Auto picks by the
// job's shape through pickBackend, and auto reports that it did; an
// explicit backend is honoured as-is.
func (e *Engine) backend(nFaults, nPats int, drop bool) (be Backend, auto bool) {
	if e.opts.Backend != Auto {
		return e.opts.Backend, false
	}
	return pickBackend(nFaults, nPats, drop), true
}

// startSpan opens a run's span with the job's shape and the backend
// that runs it. The span observes the same-named timer on End, so run
// reports keep one timer entry per backend.
func (e *Engine) startSpan(ctx context.Context, name string, be Backend, auto bool, nFaults, nPats int) (context.Context, *telemetry.Span) {
	ctx, span := telemetry.StartSpanCtx(ctx, e.reg, name)
	span.SetAttr("faults", strconv.Itoa(nFaults))
	span.SetAttr("patterns", strconv.Itoa(nPats))
	span.SetAttr("backend", be.String())
	span.SetAttr("auto", strconv.FormatBool(auto))
	return ctx, span
}

// pickBackend implements the Auto heuristics; the selection table is
// documented in DESIGN.md. Tiny jobs skip engine setup and run
// serially. Fault-heavy gradings — no-drop jobs with many faults per
// pattern, and short drop-mode re-grades — trace observability from
// the good machine, where CPT grades every fault in O(1) per block.
// Everything else takes the sharded parallel-pattern path.
func pickBackend(nFaults, nPatterns int, drop bool) Backend {
	if nFaults*nPatterns <= 512 {
		return BackendSerial
	}
	if !drop && nFaults >= 4*nPatterns {
		return BackendCPT
	}
	if nPatterns <= 16 && nFaults >= 64*nPatterns {
		return BackendCPT
	}
	return BackendParallel
}

// newResult allocates a Result with no detections recorded.
func newResult(faults []Fault, numPats int) *Result {
	res := &Result{
		Faults:     faults,
		Detected:   make([]bool, len(faults)),
		DetectedBy: make([]int, len(faults)),
		NumPats:    numPats,
	}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	return res
}

// progress returns the run's fault.sim.progress tracker with total
// more units expected, or nil under NoProgress.
func (e *Engine) progress(total int64) *telemetry.Progress {
	if e.opts.NoProgress {
		return nil
	}
	prog := e.reg.Progress("fault.sim.progress")
	prog.AddTotal(total)
	return prog
}

// flushCounts drains a simulator's work counters into the registry.
func (e *Engine) flushCounts(ps *ParallelSim) {
	masks, evals := ps.TakeCounts()
	e.reg.Counter("fault.sim.faultmasks").Add(masks)
	e.reg.Counter("fault.sim.events").Add(evals)
}

// noteWorkers records a run's worker count, at least one, on its span
// and counts a sharded run in fault.engine.runs.
func (e *Engine) noteWorkers(span *telemetry.Span, w int) int {
	w = max(1, w)
	span.SetAttr("workers", strconv.Itoa(w))
	if w > 1 {
		e.reg.Counter("fault.engine.runs").Inc()
	}
	return w
}

// fanOut is the engine's one way to run workers: fn(wi) runs once for
// every worker slot wi in [0, w), worker 0 on the calling goroutine,
// and fanOut returns when all have finished, with the first error in
// worker order. A sharded fan-out (w > 1) sets the fault.sim.workers
// gauge.
func (e *Engine) fanOut(w int, fn func(wi int) error) error {
	if w <= 1 {
		return fn(0)
	}
	e.reg.Gauge("fault.sim.workers").Set(int64(w))
	errs := make([]error, w)
	var wg sync.WaitGroup
	for wi := 1; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[wi] = fn(wi)
		}()
	}
	errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cursor deals the index range [0, n) to concurrent workers in chunks
// of chunk indices; every index is claimed exactly once.
type cursor struct {
	next     atomic.Int64
	n, chunk int
}

// claim returns the next unclaimed chunk [lo, hi), or ok false once
// the range is exhausted.
func (c *cursor) claim() (lo, hi int, ok bool) {
	lo = int(c.next.Add(int64(c.chunk))) - c.chunk
	if lo >= c.n {
		return 0, 0, false
	}
	return lo, min(lo+c.chunk, c.n), true
}

// chunkSize picks the dynamic-queue chunk: ~4 chunks per worker
// amortizes the per-chunk good-machine passes while still letting the
// queue rebalance dropped-out shards, with a floor so a chunk is worth
// its dispatch. A single worker takes the whole list as one chunk, so
// it pays one good-machine pass per block.
func chunkSize(n, workers int) int {
	if workers <= 1 {
		return n
	}
	chunk := (n + workers*4 - 1) / (workers * 4)
	if chunk < 64 {
		chunk = 64
	}
	return chunk
}

// shardFaults is the PPSFP backend's scheduler: it deals the fault
// list to min(workers, faults) workers in dynamic chunks, and each
// worker grades its chunks through blockLoop on its own pooled
// simulator. Each chunk owns a disjoint range of fault indices, so
// nothing is merged under a lock. Progress, shard telemetry and work
// counters are recorded here, once per chunk or per worker; under
// dropping, fault.sim.drops_per_block observes each chunk block's
// drops.
func (e *Engine) shardFaults(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns,
	drop bool, emit emitFunc) error {
	reg := e.reg
	n := len(faults)
	w := e.noteWorkers(span, min(e.workers, n))
	prog := e.progress(int64(n))
	chunks := &cursor{n: n, chunk: chunkSize(n, w)}
	shardHist := reg.Histogram("fault.engine.shard_faults")
	var dropHist *telemetry.Histogram
	if drop {
		dropHist = reg.Histogram("fault.sim.drops_per_block")
	}
	var blocks, shards atomic.Int64
	err := e.fanOut(w, func(wi int) (err error) {
		ps := e.sim(wi)
		var myBlocks int64
		for err == nil {
			lo, hi, ok := chunks.claim()
			if !ok {
				break
			}
			if err = ctx.Err(); err != nil {
				break
			}
			shards.Add(1)
			shardHist.Observe(int64(hi - lo))
			var nb int64
			nb, err = blockLoop(ctx, ps, faults, lo, hi, pats, dropHist, emit)
			myBlocks += nb
			if err == nil && prog != nil {
				prog.Add(int64(hi - lo))
			}
		}
		blocks.Add(myBlocks)
		e.flushCounts(ps)
		return err
	})
	reg.Counter("fault.engine.shards").Add(shards.Load())
	reg.Counter("fault.sim.blocks").Add(blocks.Load())
	return err
}

// runSerial is the scalar backend's block loop: one good-machine
// pass per pattern (shared across faults), one faulty-machine pass per
// live fault per pattern, both on the interpreted kernel, with pattern
// bits read straight from the packed blocks. Each detection reaches
// emit as a one-bit word in its pattern's block. Detection semantics
// mirror the PPSFP engine exactly, including its view conventions
// (unlisted sources held at 0) and its treatment of faults on source
// elements.
func (e *Engine) runSerial(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns, emit emitFunc) error {
	e.noteWorkers(span, 1)
	n := e.c.NumNets()
	good := make([]bool, n)
	bad := make([]bool, n)
	scratch := make([]bool, e.c.MaxFanin())
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	passes := int64(0)
	defer func() { cSerialEvals.Add(passes) }()
	for pi := 0; pi < pats.NumPatterns() && len(live) > 0; pi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		words, _ := pats.Block(pi / 64)
		e.loadSerial(words, pi%64, good, scratch)
		passes += 1 + int64(len(live))
		next := live[:0]
		for _, fi := range live {
			if !e.serialDetects(faults[fi], good, bad, scratch) || !emit(fi, pi/64, 1<<uint(pi%64)) {
				next = append(next, fi)
			}
		}
		live = next
	}
	return nil
}

// loadSerial computes the good machine for pattern bit of a packed
// block under the engine's view: unlisted source elements at 0, the
// pattern's bits on the view inputs, then the interpreted levelized
// pass. The serial backend never touches the compiled kernel, so it
// stays an independent reference for every compiled backend.
func (e *Engine) loadSerial(words []uint64, bit int, vals, scratch []bool) {
	c := e.c
	for _, pi := range c.PIs {
		vals[pi] = false
	}
	for _, d := range c.DFFs {
		vals[d] = false
	}
	for i, in := range e.inputs {
		vals[in] = words[i]>>uint(bit)&1 == 1
	}
	evalOrder(c, goodMachine, vals, scratch)
}

// serialDetects runs the faulty machine for f against the loaded good
// machine and reports whether any view output differs.
func (e *Engine) serialDetects(f Fault, good, bad, scratch []bool) bool {
	c := e.c
	for _, pi := range c.PIs {
		bad[pi] = good[pi]
	}
	for _, d := range c.DFFs {
		bad[d] = good[d]
	}
	if !c.Gates[f.Gate].Type.IsCombinational() {
		// A stem fault pins the source net; a DFF D-pin fault replaces
		// the whole captured operand, which the element passes through.
		bad[f.Gate] = f.SA == logic.One
	}
	evalOrder(c, f, bad, scratch)
	for _, o := range e.outputs {
		if bad[o] != good[o] {
			return true
		}
	}
	return false
}

// minSessionShard is the smallest live-fault shard worth a session
// worker: below it the block's fan-out cost exceeds the fault work.
const minSessionShard = 64

// Session is an incremental fault-dropping grader over a fixed fault
// list — the engine's interface for generator loops (random-pattern
// ATPG, advise's probe) that produce patterns block by block and need
// to know which patterns earned their keep. Dropping is always on: a
// session exists to shrink its live list.
type Session struct {
	e      *Engine
	faults []Fault
	live   []int
	caught int

	// per-worker tallies, rewritten every block
	shards []sessionShard

	// packed holds the current block, packed once and shared read-only
	// by every worker's LoadPackedBlock.
	packed []uint64
}

// sessionShard is one worker's share of a block: how many of its live
// faults survive, how many it caught, and which block patterns first
// detected them.
type sessionShard struct {
	kept, caught int
	useful       uint64
}

// NewSession starts a grading session over faults. detected, indexed
// like faults, marks faults already caught elsewhere: they start out
// of the live list and count as caught. The session
// shares the engine's pooled simulators; like the engine it is not
// safe for concurrent use.
func (e *Engine) NewSession(faults []Fault, detected []bool) *Session {
	live := make([]int, 0, len(faults))
	for i := range faults {
		if !detected[i] {
			live = append(live, i)
		}
	}
	return &Session{
		e:      e,
		faults: faults,
		live:   live,
		caught: len(faults) - len(live),
		shards: make([]sessionShard, e.workers),
		packed: make([]uint64, len(e.inputs)),
	}
}

// ApplyBlock grades one block of up to 64 patterns against the
// still-live faults, with dropping. Newly caught faults are marked in
// detected (indexed like the session's fault list), and the returned
// mask has bit p set when block pattern p was the first detector of
// some fault — the block's "useful" patterns. The live list is sharded
// across the engine's workers, at most one per minSessionShard live
// faults since each pays its own good-machine pass; each worker
// compacts its survivors in place and the masks are ORed afterwards,
// so outcomes are bit-identical for every worker count.
func (s *Session) ApplyBlock(block [][]bool, detected []bool) uint64 {
	if len(block) > 64 {
		block = block[:64]
	}
	k := sim.PackPatternsInto(block, s.packed)
	e := s.e
	mask := blockMask(k)
	nLive := len(s.live)
	w := max(1, min(e.workers, nLive/minSessionShard))
	// Contiguous live ranges per worker; each worker compacts its
	// survivors in place (write index trails read index), then the
	// segments are stitched left. Order is preserved and writes are
	// disjoint.
	e.fanOut(w, func(wi int) error {
		lo, hi := wi*nLive/w, (wi+1)*nLive/w
		ps := e.sim(wi)
		ps.LoadPackedBlock(s.packed, k)
		wr := lo
		var sh sessionShard
		for _, fi := range s.live[lo:hi] {
			det := ps.FaultMask(s.faults[fi]) & mask
			if det == 0 {
				s.live[wr] = fi
				wr++
				continue
			}
			detected[fi] = true
			sh.caught++
			sh.useful |= det & -det
		}
		sh.kept = wr - lo
		s.shards[wi] = sh
		return nil
	})
	kept := 0
	var useful uint64
	for wi, sh := range s.shards[:w] {
		lo := wi * nLive / w
		copy(s.live[kept:], s.live[lo:lo+sh.kept])
		kept += sh.kept
		s.caught += sh.caught
		useful |= sh.useful
		e.flushCounts(e.sims[wi])
	}
	s.live = s.live[:kept]
	e.reg.Counter("fault.sim.blocks").Inc()
	e.reg.Counter("fault.sim.patterns").Add(int64(k))
	return useful
}

// Remaining reports the number of still-undetected faults.
func (s *Session) Remaining() int { return len(s.live) }

// Caught reports the number of detected faults.
func (s *Session) Caught() int { return s.caught }

// Coverage returns detected / total for the session's fault list.
func (s *Session) Coverage() float64 {
	if len(s.faults) == 0 {
		return 0
	}
	return float64(s.caught) / float64(len(s.faults))
}
