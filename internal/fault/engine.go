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
	be := e.opts.Backend
	if be == Auto {
		be = pickBackend(len(faults), len(patterns), e.drop())
	}
	switch be {
	case BackendSerial:
		return e.runSerial(ctx, faults, patterns)
	case BackendCPT:
		return e.runCPT(ctx, faults, PackPatternSet(len(e.inputs), patterns))
	default:
		// Pack the pattern set once; every worker shares the blocks
		// read-only instead of repacking them per chunk.
		return e.runParallel(ctx, faults, PackPatternSet(len(e.inputs), patterns))
	}
}

// RunPacked is Run for a pattern set already in packed PPSFP form —
// the natural input of the exhaustive 2^N consumers (syndrome, Walsh,
// autonomous testing), which synthesize blocks from periodic masks
// without ever materializing scalar vectors. Results are byte-identical
// to Run on the equivalent scalar set. The serial backend, which walks
// patterns one at a time, unpacks on entry.
func (e *Engine) RunPacked(ctx context.Context, faults []Fault, pats *PackedPatterns) (*Result, error) {
	if pats.NumInputs() != len(e.inputs) {
		panic(fmt.Sprintf("fault: packed patterns are %d wide for %d view inputs", pats.NumInputs(), len(e.inputs)))
	}
	be := e.opts.Backend
	if be == Auto {
		be = pickBackend(len(faults), pats.NumPatterns(), e.drop())
	}
	switch be {
	case BackendSerial:
		return e.runSerial(ctx, faults, pats.Patterns())
	case BackendCPT:
		return e.runCPT(ctx, faults, pats)
	default:
		return e.runParallel(ctx, faults, pats)
	}
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

// chunkSize picks the dynamic-queue chunk: ~4 chunks per worker
// amortizes the per-chunk good-machine passes while still letting the
// queue rebalance dropped-out shards, with a floor so a chunk is worth
// its dispatch.
func chunkSize(n, workers int) int {
	chunk := (n + workers*4 - 1) / (workers * 4)
	if chunk < 64 {
		chunk = 64
	}
	return chunk
}

// runParallel is the PPSFP path: single-threaded when one worker
// suffices, otherwise the fault list is sharded across workers in
// dynamic chunks and every worker grades its chunks on its own pooled
// simulator.
func (e *Engine) runParallel(ctx context.Context, faults []Fault, pats *PackedPatterns) (*Result, error) {
	reg := e.reg
	nPats := pats.NumPatterns()
	// The span observes the same-named timer on End, so run-report
	// timers keep the fault.sim.engine entry older consumers expect.
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "fault.sim.engine")
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	span.SetAttr("patterns", strconv.Itoa(nPats))
	defer span.End()
	// Progress: faults graded vs. total, ticked once per chunk from
	// the dispatch loop — batched atomics, per the package discipline.
	var prog *telemetry.Progress
	if !e.opts.NoProgress {
		prog = reg.Progress("fault.sim.progress")
		prog.AddTotal(int64(len(faults)))
	}
	w := e.workers
	if w > len(faults) {
		w = len(faults)
	}
	span.SetAttr("workers", strconv.Itoa(w))
	var dropHist *telemetry.Histogram
	if e.drop() {
		dropHist = reg.Histogram("fault.sim.drops_per_block")
	}
	res := newResult(faults, nPats)
	if w <= 1 {
		ps := e.sim(0)
		caught, blocks, err := blockLoop(ctx, ps, faults, pats, e.drop(), res.Detected, res.DetectedBy, dropHist)
		masks, evals := ps.TakeCounts()
		reg.Counter("fault.sim.faultmasks").Add(masks)
		reg.Counter("fault.sim.events").Add(evals)
		reg.Counter("fault.sim.blocks").Add(blocks)
		if err != nil {
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
		if prog != nil {
			prog.Add(int64(len(faults)))
		}
		res.NumCaught = caught
		reg.Counter("fault.sim.patterns").Add(int64(nPats))
		reg.Counter("fault.sim.detected").Add(int64(caught))
		return res, nil
	}

	reg.Gauge("fault.sim.workers").Set(int64(w))
	reg.Counter("fault.engine.runs").Inc()
	chunk := chunkSize(len(faults), w)
	shardHist := reg.Histogram("fault.engine.shard_faults")
	var cursor, caught, blocks, shards atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			ps := e.sim(wi)
			var myCaught, myBlocks int64
			for {
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= len(faults) {
					break
				}
				if err := ctx.Err(); err != nil {
					errs[wi] = err
					break
				}
				hi := lo + chunk
				if hi > len(faults) {
					hi = len(faults)
				}
				shards.Add(1)
				shardHist.Observe(int64(hi - lo))
				n, nb, err := blockLoop(ctx, ps, faults[lo:hi], pats, e.drop(),
					res.Detected[lo:hi], res.DetectedBy[lo:hi], dropHist)
				myCaught += int64(n)
				myBlocks += nb
				if err != nil {
					errs[wi] = err
					break
				}
				if prog != nil {
					prog.Add(int64(hi - lo))
				}
			}
			caught.Add(myCaught)
			blocks.Add(myBlocks)
			masks, evals := ps.TakeCounts()
			reg.Counter("fault.sim.faultmasks").Add(masks)
			reg.Counter("fault.sim.events").Add(evals)
		}(wi)
	}
	wg.Wait()
	reg.Counter("fault.engine.shards").Add(shards.Load())
	reg.Counter("fault.sim.blocks").Add(blocks.Load())
	for _, err := range errs {
		if err != nil {
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
	}
	res.NumCaught = int(caught.Load())
	reg.Counter("fault.sim.patterns").Add(int64(nPats))
	reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
	return res, nil
}

// runSerial is the scalar backend: one good-machine pass per pattern
// (shared across faults), one faulty-machine pass per live fault per
// pattern. Detection semantics mirror the PPSFP engine exactly,
// including its view conventions (unlisted sources held at 0) and its
// treatment of faults on source elements.
func (e *Engine) runSerial(ctx context.Context, faults []Fault, patterns [][]bool) (*Result, error) {
	reg := e.reg
	defer reg.Timer("fault.sim.serial").Time()()
	res := newResult(faults, len(patterns))
	n := e.c.NumNets()
	good := make([]bool, n)
	bad := make([]bool, n)
	scratch := make([]bool, e.c.MaxFanin())
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	drop := e.drop()
	passes := int64(0)
	for pi, p := range patterns {
		if err := ctx.Err(); err != nil {
			cSerialEvals.Add(passes)
			reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
		if len(live) == 0 && drop {
			break
		}
		e.loadSerial(p, good, scratch)
		passes++
		next := live[:0]
		for _, fi := range live {
			f := faults[fi]
			if res.Detected[fi] {
				// No-drop mode keeps detected faults in the loop for the
				// ablation's work accounting, but first detections stand.
				passes++
				e.serialDetects(f, good, bad, scratch)
				next = append(next, fi)
				continue
			}
			passes++
			if e.serialDetects(f, good, bad, scratch) {
				res.Detected[fi] = true
				res.DetectedBy[fi] = pi
				res.NumCaught++
				if !drop {
					next = append(next, fi)
				}
				continue
			}
			next = append(next, fi)
		}
		live = next
	}
	cSerialEvals.Add(passes)
	reg.Counter("fault.sim.patterns").Add(int64(len(patterns)))
	reg.Counter("fault.sim.detected").Add(int64(res.NumCaught))
	return res, nil
}

// loadSerial computes the good machine for one pattern under the
// engine's view: unlisted source elements at 0, pattern bits on the
// view inputs, then an interpreted levelized pass. The serial backend
// never touches the compiled kernel, so it stays an independent
// reference for every compiled backend.
func (e *Engine) loadSerial(p []bool, vals, scratch []bool) {
	c := e.c
	for _, pi := range c.PIs {
		vals[pi] = false
	}
	for _, d := range c.DFFs {
		vals[d] = false
	}
	for i, b := range p {
		vals[e.inputs[i]] = b
	}
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			in[i] = vals[src]
		}
		vals[id] = g.Type.EvalBool(in)
	}
}

// serialDetects runs the faulty machine for f against the loaded good
// machine and reports whether any view output differs.
func (e *Engine) serialDetects(f Fault, good, bad, scratch []bool) bool {
	c := e.c
	stuck := f.SA == logic.One
	for _, pi := range c.PIs {
		bad[pi] = good[pi]
	}
	for _, d := range c.DFFs {
		bad[d] = good[d]
	}
	if !c.Gates[f.Gate].Type.IsCombinational() {
		// A stem fault pins the source net; a DFF D-pin fault replaces
		// the whole captured operand, which the element passes through.
		bad[f.Gate] = stuck
	}
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			in[i] = bad[src]
		}
		if f.Pin != Stem && f.Gate == id {
			in[f.Pin] = stuck
		}
		v := g.Type.EvalBool(in)
		if f.Pin == Stem && f.Gate == id {
			v = stuck
		}
		bad[id] = v
	}
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
// ATPG, compaction) that produce patterns block by block and need to
// know which patterns earned their keep. Dropping is always on: a
// session exists to shrink its live list. Replay adds the compaction
// discipline on top: a whole packed set graded in either direction
// with per-pattern first-detect credit, and Reset re-arms the fault
// list between passes without rebuilding the session (or re-collapsing
// the fault list).
type Session struct {
	e      *Engine
	faults []Fault
	live   []int
	caught int

	// per-worker scratch, reused every block
	counts  []int
	caughts []int
	credits [][64]int

	// packed holds the current block, packed once and shared read-only
	// by every worker's LoadPackedBlock.
	packed []uint64
}

// NewSession starts a grading session over faults. The session shares
// the engine's pooled simulators; like the engine it is not safe for
// concurrent use.
func (e *Engine) NewSession(faults []Fault) *Session {
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	return &Session{
		e:       e,
		faults:  faults,
		live:    live,
		counts:  make([]int, e.workers),
		caughts: make([]int, e.workers),
		credits: make([][64]int, e.workers),
		packed:  make([]uint64, len(e.inputs)),
	}
}

// Reset re-arms every fault: the live list returns to the full fault
// list and the caught count clears, while the engine's pooled
// simulators — the expensive state — carry over. Multi-pass compaction
// replays call this between passes.
func (s *Session) Reset() {
	if cap(s.live) < len(s.faults) {
		s.live = make([]int, len(s.faults))
	}
	s.live = s.live[:len(s.faults)]
	for i := range s.live {
		s.live[i] = i
	}
	s.caught = 0
}

// ReplayOrder selects the direction Replay walks a pattern set.
type ReplayOrder int

const (
	// ReplayForward walks patterns first-to-last; a caught fault
	// credits its lowest-indexed detecting pattern.
	ReplayForward ReplayOrder = iota
	// ReplayReverse walks patterns last-to-first; a caught fault
	// credits its highest-indexed detecting pattern — the reverse-order
	// compaction discipline.
	ReplayReverse
)

// creditBit picks the block bit a newly caught fault credits: the
// first detecting pattern met in walk order.
func creditBit(det uint64, order ReplayOrder) int {
	if order == ReplayReverse {
		return 63 - bits.LeadingZeros64(det)
	}
	return bits.TrailingZeros64(det)
}

// applyPacked grades one packed block (k patterns in the words' low
// bits) against the still-live faults, with dropping. Newly caught
// faults are marked in detected (indexed like the session's fault
// list) and each credits exactly one block pattern — the first one met
// in walk order — by incrementing credits[bit]. The live list is
// sharded across the engine's workers when it is large enough to pay
// for the per-worker good-machine pass; per-worker credit buffers are
// summed afterwards, so outcomes are identical for every worker count.
func (s *Session) applyPacked(words []uint64, k int, order ReplayOrder, detected []bool, credits *[64]int) {
	e := s.e
	mask := blockMask(k)
	w := e.workers
	if max := len(s.live) / minSessionShard; w > max {
		w = max
	}
	var masks, evals int64
	if w <= 1 {
		ps := e.sim(0)
		ps.LoadPackedBlock(words, k)
		wr := 0
		for _, fi := range s.live {
			det := ps.FaultMask(s.faults[fi]) & mask
			if det == 0 {
				s.live[wr] = fi
				wr++
				continue
			}
			detected[fi] = true
			s.caught++
			credits[creditBit(det, order)]++
		}
		s.live = s.live[:wr]
		masks, evals = ps.TakeCounts()
	} else {
		// Contiguous live ranges per worker; each worker compacts its
		// survivors in place (write index trails read index), then the
		// segments are stitched left. Order is preserved, writes are
		// disjoint, and no allocation happens past this line.
		nLive := len(s.live)
		var wg sync.WaitGroup
		for wi := 0; wi < w; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				lo, hi := wi*nLive/w, (wi+1)*nLive/w
				ps := e.sim(wi)
				ps.LoadPackedBlock(words, k)
				wr := lo
				myCredits := &s.credits[wi]
				myCaught := 0
				for _, fi := range s.live[lo:hi] {
					det := ps.FaultMask(s.faults[fi]) & mask
					if det == 0 {
						s.live[wr] = fi
						wr++
						continue
					}
					detected[fi] = true
					myCaught++
					myCredits[creditBit(det, order)]++
				}
				s.counts[wi] = wr - lo
				s.caughts[wi] = myCaught
			}(wi)
		}
		wg.Wait()
		kept := s.counts[0]
		for wi := 1; wi < w; wi++ {
			lo := wi * nLive / w
			copy(s.live[kept:], s.live[lo:lo+s.counts[wi]])
			kept += s.counts[wi]
		}
		s.live = s.live[:kept]
		for wi := 0; wi < w; wi++ {
			s.caught += s.caughts[wi]
			for b, n := range s.credits[wi] {
				if n != 0 {
					credits[b] += n
					s.credits[wi][b] = 0
				}
			}
			m, ev := e.sims[wi].TakeCounts()
			masks += m
			evals += ev
		}
	}
	reg := e.reg
	reg.Counter("fault.sim.faultmasks").Add(masks)
	reg.Counter("fault.sim.events").Add(evals)
	reg.Counter("fault.sim.blocks").Inc()
	reg.Counter("fault.sim.patterns").Add(int64(k))
}

// ApplyBlock grades one block of up to 64 patterns against the
// still-live faults, with dropping. Newly caught faults are marked in
// detected (indexed like the session's fault list), and the returned
// mask has bit p set when block pattern p was the first detector of
// some fault — the block's "useful" patterns. The live list is sharded
// across the engine's workers when it is large enough to pay for the
// per-worker good-machine pass; outcomes are bit-identical either way.
func (s *Session) ApplyBlock(block [][]bool, detected []bool) uint64 {
	if len(block) > 64 {
		block = block[:64]
	}
	k := sim.PackPatternsInto(block, s.packed)
	var credits [64]int
	s.applyPacked(s.packed, k, ReplayForward, detected, &credits)
	var useful uint64
	for b := 0; b < k; b++ {
		if credits[b] != 0 {
			useful |= 1 << uint(b)
		}
	}
	return useful
}

// Replay grades an entire packed pattern set through the session with
// dropping, crediting each fault's first detection to exactly one
// pattern and returning the per-pattern credit counts: credits[p] is
// the number of faults pattern p first-detected, so the patterns with
// credits[p] > 0 are the set's useful patterns. Under ReplayForward
// blocks run first-to-last and a fault credits its lowest-indexed
// detecting pattern; under ReplayReverse blocks run last-to-first and
// a fault credits its highest-indexed one — exactly per-pattern
// reverse-order processing, at PPSFP block speed: dropping between
// blocks reproduces the per-pattern live lists, and within a block
// each fault's detection mask is independent of the order patterns are
// consumed. detected, when non-nil, receives the caught faults
// (indexed like the session's fault list). Cancellation is honored
// between blocks. Callers replaying a set from scratch on a used
// session call Reset first.
func (s *Session) Replay(ctx context.Context, pats *PackedPatterns, order ReplayOrder, detected []bool) ([]int, error) {
	if pats.NumInputs() != len(s.e.inputs) {
		panic(fmt.Sprintf("fault: packed patterns are %d wide for %d view inputs", pats.NumInputs(), len(s.e.inputs)))
	}
	if detected == nil {
		detected = make([]bool, len(s.faults))
	}
	credits := make([]int, pats.NumPatterns())
	nb := pats.NumBlocks()
	for i := 0; i < nb && len(s.live) > 0; i++ {
		if err := ctx.Err(); err != nil {
			s.e.reg.Counter("fault.engine.cancelled").Inc()
			return nil, err
		}
		bi := i
		if order == ReplayReverse {
			bi = nb - 1 - i
		}
		words, k := pats.Block(bi)
		var block [64]int
		s.applyPacked(words, k, order, detected, &block)
		base := bi * 64
		for b := 0; b < k; b++ {
			if block[b] != 0 {
				credits[base+b] = block[b]
			}
		}
	}
	return credits, nil
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
