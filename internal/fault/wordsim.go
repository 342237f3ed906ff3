package fault

import (
	"context"

	"dft/internal/logic"
	"dft/internal/sim"
)

// Result accumulates combinational fault-simulation outcomes across
// pattern batches.
type Result struct {
	Faults     []Fault
	Detected   []bool
	DetectedBy []int // index of first detecting pattern, -1 if none
	NumCaught  int
	NumPats    int
}

// Coverage returns the single stuck-at fault coverage: detected faults
// divided by assumed faults — the paper's defining metric.
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.NumCaught) / float64(len(r.Faults))
}

// Undetected returns the faults not yet detected.
func (r *Result) Undetected() []Fault {
	var out []Fault
	for i, f := range r.Faults {
		if !r.Detected[i] {
			out = append(out, f)
		}
	}
	return out
}

// Fanout classes of a net for critical-path tracing.
const (
	cptNone   uint8 = iota // no combinational reader: obs = 0 (or self-observation)
	cptSingle              // exactly one reader pin: chain rule
	cptMulti               // reconvergent stem: explicit complement simulation
)

// topology is the flat, immutable form of a circuit under one view that
// the propagation kernel and critical-path tracing walk. It is built
// once per engine and shared read-only by every worker's simulator. The
// view-independent operator table, CSR arrays and levels are the
// circuit's shared sim.Topology arrays, held here as direct fields so
// the kernel's inner loops read them without a pointer hop. Every
// combinational gate is a fold of its operand words under its
// operator's connective followed by an output inversion (logic.Op).
type topology struct {
	op       []logic.Op // gate operator per net, shared with PODEM
	inv      []uint64   // output inversion word per net, from op's inversion bit
	fanStart []int32    // fanins of net n: fanin[fanStart[n]:fanStart[n+1]]
	fanin    []int32
	rdStart  []int32 // combinational readers of n, deduplicated: readers[rdStart[n]:rdStart[n+1]]
	readers  []int32
	level    []int32
	isObs    []bool
	nOrder   int // combinational gates, one good-machine pass

	// Critical-path tracing: a net read by exactly one combinational
	// pin takes its observability from that reader by the chain rule;
	// every other non-output net with combinational readers is a
	// reconvergent stem, flipped explicitly. chain lists the nets the
	// chain-rule pass visits, in reverse topological order.
	kind   []uint8
	reader []int32
	pin    []int32
	stems  []int32
	chain  []int32
}

func newTopology(c *logic.Circuit, outputs []int) *topology {
	n := c.NumNets()
	st := sim.TopologyFor(c)
	t := &topology{
		op:       st.Op,
		inv:      make([]uint64, n),
		fanStart: st.FanStart,
		fanin:    st.Fanin,
		rdStart:  st.RdStart,
		readers:  st.Readers,
		level:    st.Level,
		isObs:    make([]bool, n),
		nOrder:   len(c.Order),
		kind:     make([]uint8, n),
		reader:   make([]int32, n),
		pin:      make([]int32, n),
	}
	for _, o := range outputs {
		t.isObs[o] = true
	}
	for id := range c.Gates {
		if st.Op[id]&logic.OpInv != 0 {
			t.inv[id] = ^uint64(0)
		}
		pins := 0
		for _, r := range c.Fanout[id] {
			if !c.Gates[r].Type.IsCombinational() {
				continue // DFF capture edges are sequential, invisible to one combinational cycle
			}
			if pins++; pins == 1 {
				t.reader[id] = int32(r)
				for p, f := range c.Gates[r].Fanin {
					if f == id {
						t.pin[id] = int32(p)
						break
					}
				}
			}
		}
		switch {
		case pins == 1:
			t.kind[id] = cptSingle
		case pins > 1:
			t.kind[id] = cptMulti
		}
	}
	visit := func(id int) {
		if t.kind[id] == cptMulti && !t.isObs[id] {
			t.stems = append(t.stems, int32(id))
		} else {
			t.chain = append(t.chain, int32(id))
		}
	}
	for i := len(c.Order) - 1; i >= 0; i-- {
		visit(c.Order[i])
	}
	for _, pi := range c.PIs {
		visit(pi)
	}
	for _, d := range c.DFFs {
		visit(d)
	}
	return t
}

// eval computes combinational gate id over the words in v.
func (t *topology) eval(id int32, v []uint64) uint64 {
	in := t.fanin[t.fanStart[id]:t.fanStart[id+1]]
	var w uint64
	switch t.op[id].Conn() {
	case logic.OpAnd:
		w = ^uint64(0)
		for _, s := range in {
			w &= v[s]
		}
	case logic.OpOr:
		for _, s := range in {
			w |= v[s]
		}
	default:
		for _, s := range in {
			w ^= v[s]
		}
	}
	return w ^ t.inv[id]
}

// evalPinned is eval with operand pin replaced by pw; a net read on two
// pins is replaced on the named pin only.
func (t *topology) evalPinned(id, pin int, v []uint64, pw uint64) uint64 {
	in := t.fanin[t.fanStart[id]:t.fanStart[id+1]]
	var w uint64
	op := t.op[id].Conn()
	if op == logic.OpAnd {
		w = ^uint64(0)
	}
	for i, s := range in {
		x := v[s]
		if i == pin {
			x = pw
		}
		switch op {
		case logic.OpAnd:
			w &= x
		case logic.OpOr:
			w |= x
		default:
			w ^= x
		}
	}
	return w ^ t.inv[id]
}

// ParallelSim is a 64-way parallel-pattern single-fault-propagation
// (PPSFP) fault simulator. Patterns are packed 64 to a word; each
// fault is injected once per block and its effects propagated through
// the fanout cone only.
//
// The simulator is view-aware: the controllable nets (pattern bit
// positions) and observable nets are configurable, so the same engine
// serves plain combinational circuits (PIs/POs) and scan designs
// (PIs+flip-flops / POs+flip-flop D inputs). Source elements not in
// the input list are held at 0, the toolkit's reset state.
//
// Faulty words are written in place over a copy of the good words; a
// dirty list restores them at the start of the next propagation, so
// FaultyWord reads the last fault's machine until then.
type ParallelSim struct {
	c       *logic.Circuit
	t       *topology
	prog    *sim.Program // compiled good-machine kernel
	inputs  []int
	good    sim.Words
	cur     []uint64  // faulty machine: good words overwritten on dirty nets
	dirty   []int32   // nets whose cur word differs from good
	queued  []bool    // gate waiting in its level bucket
	byLevel [][]int32 // worklist buckets indexed by level
	pending int       // queued gates not yet evaluated
	det     uint64    // detections of the propagation in progress
	care    uint64    // pattern lanes the propagation in progress still grades
	mode    propMode  // what a detection does to care
	liveBuf []int     // blockLoop's live list, reused across calls

	// The wide layout of cpt's group flips (loadWide, flipWide): good
	// and faulty words of up to wideBlocks blocks side by side, four
	// words per net, allocated on the first wide group.
	wgood, wcur []uint64

	// Work counters, accumulated as plain ints (the simulator is owned
	// by one goroutine) and drained in batches via TakeCounts so hot
	// loops pay no atomics.
	nMasks int64 // propagations (FaultMask and FlipMask calls)
	nEvals int64 // gate (word) evaluations, good + faulty
}

// TakeCounts returns and resets the simulator's work counters: fault
// injections simulated and gate-level word evaluations performed.
// Drivers drain this into a telemetry registry once per block or run.
func (ps *ParallelSim) TakeCounts() (masks, evals int64) {
	masks, evals = ps.nMasks, ps.nEvals
	ps.nMasks, ps.nEvals = 0, 0
	return masks, evals
}

// NewParallelSim builds a simulator observing the primary view
// (patterns over c.PIs, detection at c.POs).
func NewParallelSim(c *logic.Circuit) *ParallelSim {
	return NewParallelSimView(c, c.PIs, c.POs)
}

// NewParallelSimView builds a simulator with explicit controllable and
// observable nets. Every input must be a source element (Input or DFF).
func NewParallelSimView(c *logic.Circuit, inputs, outputs []int) *ParallelSim {
	return newParallelSim(c, newTopology(c, outputs), inputs)
}

// newParallelSim builds a simulator over a shared topology.
func newParallelSim(c *logic.Circuit, t *topology, inputs []int) *ParallelSim {
	for _, in := range inputs {
		if c.Gates[in].Type.IsCombinational() {
			panic("fault: view input " + c.NameOf(in) + " is not a source element")
		}
	}
	n := c.NumNets()
	return &ParallelSim{
		c:       c,
		t:       t,
		prog:    sim.CompiledFor(c),
		inputs:  append([]int(nil), inputs...),
		good:    make(sim.Words, n),
		cur:     make([]uint64, n),
		queued:  make([]bool, n),
		byLevel: make([][]int32, c.Depth()+1),
	}
}

// LoadPackedBlock loads an already-packed block (one word per view
// input, k patterns in the low bits) and computes the good-machine
// response through the compiled kernel. Words are masked to k bits, so a
// shared block may carry stale high bits. It returns k (capped at 64).
func (ps *ParallelSim) LoadPackedBlock(words []uint64, k int) int {
	if k > 64 {
		k = 64
	}
	c := ps.c
	// Source elements default to 0.
	for _, pi := range c.PIs {
		ps.good[pi] = 0
	}
	for _, d := range c.DFFs {
		ps.good[d] = 0
	}
	mask := blockMask(k)
	for i, in := range ps.inputs {
		ps.good[in] = words[i] & mask
	}
	ps.prog.Exec(ps.good)
	copy(ps.cur, ps.good)
	ps.dirty = ps.dirty[:0]
	ps.nEvals += int64(ps.t.nOrder)
	return k
}

// blockMask is the word of a block's k live pattern bits.
func blockMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// propMode is what a detection does to the lanes a propagation still
// carries. Only FaultMask keeps every lane, because its callers read
// the whole faulty machine through FaultyWord; an entry that returns
// only detections drops each lane once a view output has shown it.
type propMode uint8

const (
	keepAll   propMode = iota // FaultMask: care never shrinks
	dropSeen                  // DetectMask, FlipMask: a detected lane leaves care
	firstSeen                 // FirstDetect: care shrinks to the lanes below the lowest detection
)

// FaultMask simulates one fault against the loaded block, returning a
// bitmask of the patterns (bit p = pattern p) that detect it. Faults
// on source elements pin the source net — a DFF D-pin fault replaces
// the captured operand, which the element passes through — mirroring
// the serial backend. It carries every lane to the end of the fault's
// cone, so FaultyWord afterwards reads the whole faulty machine.
func (ps *ParallelSim) FaultMask(f Fault) uint64 {
	return ps.inject(f, ^uint64(0), keepAll)
}

// DetectMask is FaultMask for a grade that needs only the detections:
// it returns FaultMask(f) & mask, but drops each lane from the
// propagation once a view output has shown it and stops once no lane
// of mask is left, so FaultyWord afterwards is exact only on the lanes
// that no output detected.
func (ps *ParallelSim) DetectMask(f Fault, mask uint64) uint64 {
	return ps.inject(f, mask, dropSeen)
}

// FirstDetect is FaultMask for a grade that keeps only a fault's first
// detection: it returns the one-bit word of the lowest pattern in mask
// that detects f, or 0. The propagation carries only the lanes below
// the lowest detection found so far and stops once none is left, so
// FaultyWord afterwards is exact on those lanes only.
func (ps *ParallelSim) FirstDetect(f Fault, mask uint64) uint64 {
	return ps.inject(f, mask, firstSeen)
}

// inject puts fault f on the loaded block and propagates it over the
// care lanes.
func (ps *ParallelSim) inject(f Fault, care uint64, mode propMode) uint64 {
	stuck := uint64(0)
	if f.SA == logic.One {
		stuck = ^uint64(0)
	}
	if f.Pin == Stem || !ps.c.Gates[f.Gate].Type.IsCombinational() {
		return ps.propagate(int32(f.Gate), stuck, care, mode)
	}
	// Branch fault: only gate f.Gate sees the corrupt operand. Its
	// fanins are upstream of every fault effect, so their good words
	// are current.
	ps.nEvals++
	return ps.propagate(int32(f.Gate), ps.t.evalPinned(f.Gate, f.Pin, ps.good, stuck), care, mode)
}

// FlipMask event-propagates the complement of net n's good value
// through its combinational fanout cone and returns the patterns in
// mask on which the flip reaches a view output — the exact
// observability of n for the loaded block. Like DetectMask, it drops
// each lane once an output has shown it.
func (ps *ParallelSim) FlipMask(n int, mask uint64) uint64 {
	return ps.propagate(int32(n), ^ps.good[n], mask, dropSeen)
}

// propagate is the kernel behind FaultMask, DetectMask, FirstDetect
// and FlipMask: net n takes word w, and the change is event-propagated
// level by level through n's combinational fanout cone until nothing
// is pending. A gate is re-evaluated, written and its readers queued
// only when its word differs from the good machine's in a care lane;
// lanes outside care are left unexact. It returns the care lanes on
// which some view output differs from the good machine. Unless mode
// is keepAll, each detection shrinks care (see set), and the
// propagation stops as soon as care is empty, unqueueing whatever it
// leaves behind.
func (ps *ParallelSim) propagate(n int32, w, care uint64, mode propMode) uint64 {
	ps.nMasks++
	cur, t := ps.cur, ps.t
	for _, d := range ps.dirty {
		cur[d] = ps.good[d]
	}
	ps.dirty = ps.dirty[:0]
	ps.det, ps.care, ps.mode = 0, care, mode
	if (w^cur[n])&care == 0 {
		return 0
	}
	ps.set(n, w)
	for lv := t.level[n] + 1; ps.pending > 0; lv++ {
		bucket := ps.byLevel[lv]
		ps.byLevel[lv] = bucket[:0]
		ps.pending -= len(bucket)
		for i, id := range bucket {
			if ps.care == 0 {
				ps.nEvals += int64(i)
				ps.drain(bucket[i:], lv)
				return ps.det
			}
			ps.queued[id] = false
			if nw := t.eval(id, cur); (nw^cur[id])&ps.care != 0 {
				ps.set(id, nw)
			}
		}
		ps.nEvals += int64(len(bucket))
	}
	return ps.det
}

// drain unqueues the gates an early stop leaves behind: rest, the
// unevaluated tail of level lv's bucket, and every bucket above it.
func (ps *ParallelSim) drain(rest []int32, lv int32) {
	for _, id := range rest {
		ps.queued[id] = false
	}
	for lv++; ps.pending > 0; lv++ {
		bucket := ps.byLevel[lv]
		for _, id := range bucket {
			ps.queued[id] = false
		}
		ps.pending -= len(bucket)
		ps.byLevel[lv] = bucket[:0]
	}
}

// set writes faulty word w to net n, records any detection in a care
// lane and queues n's combinational readers. A detection in lanes d
// takes them out of care under dropSeen; under firstSeen it keeps only
// the lowest, and care shrinks to the lanes below it.
func (ps *ParallelSim) set(n int32, w uint64) {
	t := ps.t
	ps.cur[n] = w
	ps.dirty = append(ps.dirty, n)
	if t.isObs[n] {
		if d := (w ^ ps.good[n]) & ps.care; d != 0 {
			switch ps.mode {
			case keepAll:
				ps.det |= d
			case dropSeen:
				ps.det |= d
				ps.care &^= d
			default:
				d &= -d
				ps.det, ps.care = d, d-1
			}
		}
	}
	ps.queueReaders(n)
}

// queueReaders puts each combinational reader of net n that is not yet
// queued into its level's bucket.
func (ps *ParallelSim) queueReaders(n int32) {
	t := ps.t
	for _, r := range t.readers[t.rdStart[n]:t.rdStart[n+1]] {
		if !ps.queued[r] {
			ps.queued[r] = true
			ps.byLevel[t.level[r]] = append(ps.byLevel[t.level[r]], r)
			ps.pending++
		}
	}
}

// GoodWord returns the good-machine word of net n for the loaded block.
func (ps *ParallelSim) GoodWord(n int) uint64 { return ps.good[n] }

// FaultyWord returns net n's word as left by the most recent FaultMask
// call (the good word if the fault never reached n). After DetectMask,
// FirstDetect or FlipMask it is exact only on the lanes they still
// carried when they stopped.
func (ps *ParallelSim) FaultyWord(n int) uint64 { return ps.cur[n] }

// liveFor returns the simulator's reusable live-fault scratch list,
// grown to n entries.
func (ps *ParallelSim) liveFor(n int) []int {
	if cap(ps.liveBuf) < n {
		ps.liveBuf = make([]int, n)
	}
	return ps.liveBuf[:n]
}

// blockLoop is the PPSFP backend's block loop: it grades faults[lo:hi]
// against the packed pattern set block by block on ps, hands every
// nonzero detect word to emit, and drops a fault from the chunk's live
// list once emit reports it done. Under drop, a fault's word is
// FirstDetect's one-bit word of its first detecting pattern in the
// block, so the kernel carries only the lanes below a detection; drop
// is set only when emit reports every detection done. Otherwise it is
// DetectMask's word of every detecting pattern, each lane carried only
// until some output has shown it. The engine calls it once per shard, so each
// call touches only its own fault range. The pattern blocks are packed
// once by the caller and shared read-only across every shard and
// worker. Work counters accumulate on ps for the caller to drain, the
// live list reuses ps scratch (no allocation after warmup),
// cancellation is checked between blocks, and drops, when set, tallies
// by block index how many faults each block dropped.
func blockLoop(ctx context.Context, ps *ParallelSim, faults []Fault, lo, hi int, pats *PackedPatterns,
	drop bool, drops []int64, emit emitFunc) (blocks int64, err error) {
	live := ps.liveFor(hi - lo)
	for i := range live {
		live[i] = lo + i
	}
	for bi := 0; bi < pats.NumBlocks() && len(live) > 0; bi++ {
		if err := ctx.Err(); err != nil {
			return blocks, err
		}
		words, kb := pats.Block(bi)
		mask := blockMask(ps.LoadPackedBlock(words, kb))
		blocks++
		next := live[:0]
		for _, fi := range live {
			var det uint64
			if drop {
				det = ps.FirstDetect(faults[fi], mask)
			} else {
				det = ps.DetectMask(faults[fi], mask)
			}
			if det == 0 || !emit(fi, bi, det) {
				next = append(next, fi)
			}
		}
		if drops != nil {
			drops[bi] += int64(len(live) - len(next))
		}
		live = next
	}
	return blocks, nil
}
