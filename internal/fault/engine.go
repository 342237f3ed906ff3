package fault

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
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
	wobs     []uint64  // cpt group flips: wideBlocks words per stem, by stem index
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
// Returning done drops the fault from the rest of the run. Under
// dropping, where RunPacked's consumer reports every detection done,
// the PPSFP loop hands it only the one-bit word of the block's first
// detecting pattern. Calls for distinct faults may run concurrently;
// calls for one fault arrive in block order from one goroutine.
type emitFunc func(fi, bi int, det uint64) (done bool)

// grade is the preamble RunPacked and RunDetail share: it checks the
// pattern width, returns on an empty grade, opens the run's span, runs
// the block loop with emit as its consumer and records the counters.
// Explicit serial runs runSerial; every other backend runs runBlocks
// with its own live-list floor. A grade known before it starts to run
// wholly on cpt (explicit cpt, or Auto passing the test on a grade
// that does not drop or has one block) is span fault.sim.cpt with
// backend cpt, any other packed grade fault.sim.engine with backend
// parallel, and a detail grade, which never drops, fault.sim.detail.
// The span observes the same-named timer on End.
func (e *Engine) grade(ctx context.Context, faults []Fault, pats *PackedPatterns, detail bool, emit emitFunc) error {
	if pats.NumInputs() != len(e.inputs) {
		panic(fmt.Sprintf("fault: packed patterns are %d wide for %d view inputs", pats.NumInputs(), len(e.inputs)))
	}
	nPats := pats.NumPatterns()
	if len(faults) == 0 || nPats == 0 {
		return nil
	}
	drop := e.drop() && !detail
	be, auto := e.opts.Backend, e.opts.Backend == Auto
	minLive, stems := 0, 0 // explicit cpt: every block
	switch be {
	case Auto:
		stems = len(e.topology().stems)
		minLive = cptPerStem * stems
		be = BackendParallel
		if len(faults) >= minLive && (!drop || pats.NumBlocks() == 1) {
			be = BackendCPT
		}
	case BackendParallel:
		minLive = math.MaxInt // no cpt block
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
	ctx, span := telemetry.StartSpanCtx(ctx, e.reg, name)
	defer span.End()
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	span.SetAttr("patterns", strconv.Itoa(nPats))
	span.SetAttr("backend", be.String())
	span.SetAttr("auto", strconv.FormatBool(auto))
	var err error
	if be == BackendSerial {
		err = e.runSerial(ctx, span, faults, pats, emit)
	} else {
		if auto {
			span.SetAttr("stems", strconv.Itoa(stems))
		}
		err = e.runBlocks(ctx, span, faults, pats, drop, minLive, emit)
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

// runBlocks is the one block driver behind cpt, parallel and Auto.
// Before each block it asks live ≥ minLive: while yes, the block runs
// on cpt, whose stem flips cost the same however many faults are live;
// once no, one shardFaults call grades the survivors over the
// remaining blocks on PPSFP, whose cost falls with the live list.
// minLive is 0 for explicit cpt, cptPerStem × stems for Auto and
// math.MaxInt for explicit parallel. The live list only shrinks, so a
// grade is a cpt prefix and a PPSFP tail, either possibly empty, and
// one that never drops is all one or all the other; the span records
// both lengths as cpt_blocks and ppsfp_blocks. Either backend finds
// the same first detection, so the split never changes a result.
// Progress (none under NoProgress) counts patterns on a no-drop cpt
// grade and faults otherwise.
func (e *Engine) runBlocks(ctx context.Context, span *telemetry.Span, faults []Fault, pats *PackedPatterns,
	drop bool, minLive int, emit emitFunc) error {
	var prog *telemetry.Progress
	if !e.opts.NoProgress {
		prog = e.reg.Progress("fault.sim.progress")
		if !drop && len(faults) >= minLive {
			prog.AddTotal(int64(pats.NumPatterns()))
		} else {
			prog.AddTotal(int64(len(faults)))
		}
	}
	wc := e.cptWorkers()
	live, next, err := e.cptBlocks(ctx, faults, pats, wc, drop, minLive, prog, emit)
	if err != nil {
		return err
	}
	tail := pats.NumBlocks() - next
	if next > 0 && len(live) == 0 {
		tail = 0
	}
	span.SetAttr("cpt_blocks", strconv.Itoa(next))
	span.SetAttr("ppsfp_blocks", strconv.Itoa(tail))
	if tail == 0 {
		e.noteWorkers(span, wc)
		if drop && prog != nil {
			prog.Add(int64(len(live)))
		}
		return nil
	}
	if next == 0 {
		w := e.noteWorkers(span, e.shardWorkers(len(faults)))
		return e.shardFaults(ctx, faults, pats, w, prog, drop, emit)
	}
	survivors := make([]Fault, len(live))
	for i, fi := range live {
		survivors[i] = faults[fi]
	}
	w := e.shardWorkers(len(survivors))
	e.noteWorkers(span, max(wc, w))
	return e.shardFaults(ctx, survivors, pats.from(next), w, prog, true,
		func(i, bi int, det uint64) bool { return emit(live[i], next+bi, det) })
}

// cptPerStem is Auto's cpt-or-PPSFP test, checked before each block:
// cpt while at least cptPerStem live faults share each reconvergent
// stem's flip, PPSFP below that.
const cptPerStem = 4

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
// gauge. A worker that panics stops alone; once all have finished,
// fanOut re-panics on the calling goroutine with the first panic in
// worker order, a *workerPanic carrying that worker's stack.
func (e *Engine) fanOut(w int, fn func(wi int) error) error {
	if w <= 1 {
		return fn(0)
	}
	e.reg.Gauge("fault.sim.workers").Set(int64(w))
	errs := make([]error, w)
	panics := make([]*workerPanic, w)
	run := func(wi int) {
		defer func() {
			if r := recover(); r != nil {
				panics[wi] = &workerPanic{worker: wi, value: r, stack: debug.Stack()}
			}
		}()
		errs[wi] = fn(wi)
	}
	var wg sync.WaitGroup
	for wi := 1; wi < w; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(wi)
		}()
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workerPanic is what fanOut re-panics with: a worker's slot, panic
// value and stack. Its String, which %v prints, carries the stack.
type workerPanic struct {
	worker int
	value  any
	stack  []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("fault: worker %d: %v\n%s", p.worker, p.value, p.stack)
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

// minShard is the fewest faults worth a PPSFP worker: every worker
// pays its own good-machine pass per block, so a grade takes at most
// one worker per minShard faults, and no dynamic chunk is smaller.
const minShard = 64

// shardWorkers is the PPSFP worker rule for n faults: at most one
// worker per minShard faults, and at least one.
func (e *Engine) shardWorkers(n int) int { return max(1, min(e.workers, n/minShard)) }

// chunkSize picks the chunk the PPSFP cursor deals over n faults and
// blocks pattern blocks. A multi-block grade takes ~4 chunks per
// worker, at least minShard faults each, so the dynamic queue can
// rebalance the skew fault dropping creates across blocks while every
// chunk still amortizes its good-machine passes. A one-block grade has
// no cross-block skew to rebalance, so it deals one contiguous chunk
// per worker. A single worker takes the whole list as one chunk: one
// good-machine pass per block.
func chunkSize(n, workers, blocks int) int {
	if workers <= 1 {
		return n
	}
	if blocks == 1 {
		return (n + workers - 1) / workers
	}
	return max(minShard, (n+workers*4-1)/(workers*4))
}

// shardFaults is the engine's one PPSFP scheduler, behind RunPacked,
// RunDetail and Session.ApplyBlock: it deals the fault list to w
// workers in chunks of chunkSize, and each worker grades its chunks
// through blockLoop on its own pooled simulator. Worker wi's first
// chunk is chunk wi, so a worker whose goroutine starts late still
// grades its own share instead of worker 0 taking it; the chunks past
// the first w are claimed from the cursor. Each chunk owns a
// disjoint range of fault indices, so nothing is merged under a lock.
// Progress (when prog is non-nil), shard telemetry and work counters
// are recorded here, once per chunk or per worker; under dropping,
// each worker tallies its chunks' drops by block index, and after the
// fan-out fault.sim.drops_per_block observes every block the grade
// reached once, so the histogram is the same at any worker count.
func (e *Engine) shardFaults(ctx context.Context, faults []Fault, pats *PackedPatterns, w int,
	prog *telemetry.Progress, drop bool, emit emitFunc) error {
	reg := e.reg
	n := len(faults)
	nb := pats.NumBlocks()
	chunk := chunkSize(n, w, nb)
	chunks := &cursor{n: n, chunk: chunk}
	chunks.next.Store(int64(w * chunk))
	shardHist := reg.Histogram("fault.engine.shard_faults")
	var tally []int64 // drops per block, one nb-long row per worker
	if drop {
		tally = make([]int64, w*nb)
	}
	graded := make([]int64, w) // most blocks any of a worker's chunks graded
	var blocks, shards atomic.Int64
	err := e.fanOut(w, func(wi int) (err error) {
		ps := e.sim(wi)
		var drops []int64
		if drop {
			drops = tally[wi*nb : (wi+1)*nb]
		}
		var myBlocks int64
		lo, hi, ok := wi*chunk, min((wi+1)*chunk, n), wi*chunk < n
		for ; ok && err == nil; lo, hi, ok = chunks.claim() {
			if err = ctx.Err(); err != nil {
				break
			}
			shards.Add(1)
			shardHist.Observe(int64(hi - lo))
			var cb int64
			cb, err = blockLoop(ctx, ps, faults, lo, hi, pats, drop, drops, emit)
			myBlocks += cb
			graded[wi] = max(graded[wi], cb)
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
	if drop && err == nil {
		dropHist := reg.Histogram("fault.sim.drops_per_block")
		for bi := range int(slices.Max(graded)) {
			var d int64
			for wi := range w {
				d += tally[wi*nb+bi]
			}
			dropHist.Observe(d)
		}
	}
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
	defer func() { e.reg.Counter("fault.serial.evals").Add(passes) }()
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

// Session is an incremental fault-dropping grader over a fixed fault
// list — the engine's interface for generator loops (random-pattern
// ATPG, advise's probe) that produce patterns block by block and need
// to know which patterns earned their keep. Dropping is always on: a
// session exists to shrink its live list.
type Session struct {
	e      *Engine
	faults []Fault
	caught int

	// live holds the indices into faults of the still-undetected
	// faults, liveFaults the faults themselves (the list each block
	// grades), and dets each live fault's first-detect word in the
	// current block.
	live       []int
	liveFaults []Fault
	dets       []uint64

	// block holds the current block, packed once and shared read-only
	// by every worker.
	block *PackedPatterns
}

// NewSession starts a grading session over faults. detected, indexed
// like faults, marks faults already caught elsewhere: they start out
// of the live list and count as caught. The session
// shares the engine's pooled simulators; like the engine it is not
// safe for concurrent use.
func (e *Engine) NewSession(faults []Fault, detected []bool) *Session {
	s := &Session{
		e:          e,
		faults:     faults,
		live:       make([]int, 0, len(faults)),
		liveFaults: make([]Fault, 0, len(faults)),
		block:      &PackedPatterns{nInputs: len(e.inputs), blocks: [][]uint64{make([]uint64, len(e.inputs))}},
	}
	for i, f := range faults {
		if !detected[i] {
			s.live = append(s.live, i)
			s.liveFaults = append(s.liveFaults, f)
		}
	}
	s.caught = len(faults) - len(s.live)
	s.dets = make([]uint64, len(s.live))
	return s
}

// ApplyBlock grades one block of up to 64 patterns against the
// still-live faults, with dropping. Newly caught faults are marked in
// detected (indexed like the session's fault list), and the returned
// mask has bit p set when block pattern p was the first detector of
// some fault — the block's "useful" patterns. The block is packed once
// and its live list graded by the PPSFP scheduler RunPacked uses
// (shardFaults, under the same worker rule), so each live fault is
// graded by FirstDetect. The consumer only records each fault's
// first-detect word; the live list is then compacted in order, so
// outcomes are bit-identical for every worker count.
func (s *Session) ApplyBlock(block [][]bool, detected []bool) uint64 {
	if len(block) > 64 {
		block = block[:64]
	}
	e := s.e
	k := sim.PackPatternsInto(block, s.block.blocks[0])
	s.block.n = k
	dets := s.dets[:len(s.live)]
	clear(dets)
	e.shardFaults(context.TODO(), s.liveFaults, s.block, e.shardWorkers(len(s.live)), nil, true,
		func(i, _ int, det uint64) bool {
			dets[i] = det
			return true
		})
	kept := 0
	var useful uint64
	for i, fi := range s.live {
		if dets[i] != 0 {
			detected[fi] = true
			useful |= dets[i]
			continue
		}
		s.live[kept], s.liveFaults[kept] = fi, s.liveFaults[i]
		kept++
	}
	s.caught += len(s.live) - kept
	s.live, s.liveFaults = s.live[:kept], s.liveFaults[:kept]
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
