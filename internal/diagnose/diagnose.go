// Package diagnose implements fault-dictionary diagnosis, the fault-
// location counterpart of the paper's testing techniques ([52]-[68]):
// pre-compute every fault's failure behavior on a test set, then look
// up an observed failing device to get the candidate fault set.
//
// The store is a compact binary pass/fail dictionary: one packed row
// of detect bits per fault (bit p set when pattern p fails at the
// view outputs), graded by the fault engine's detail path — any
// backend, worker-invariant, context-cancellable — with an optional
// per-output full-response tier for testers that capture which pins
// failed, not just that some pin did. Lookup goes beyond exact match:
// Hamming-distance ranking tolerates partially observed or truncated
// tester responses, and DistinguishingPattern drives adaptive
// narrowing when the pins alone cannot separate candidates.
// Resolution is bounded by response-equivalence — faults with
// identical rows cannot be distinguished at the pins, which is
// exactly why the paper's bed-of-nails and signature probing exist.
package diagnose

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strconv"
	"sync"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Signature is an observed device response to the dictionary's test
// set: bit p set when pattern p failed (differed from the good
// machine on some view output). N is the number of patterns actually
// observed — a truncated tester log has N smaller than the
// dictionary's pattern count, and ranking only scores the observed
// prefix.
type Signature struct {
	N    int
	Bits []uint64
}

// NewSignature allocates an all-passing signature over n patterns.
func NewSignature(n int) Signature {
	return Signature{N: n, Bits: make([]uint64, detailWords(n))}
}

// detailWords is the packed word count for n patterns.
func detailWords(n int) int { return (n + 63) / 64 }

// Set marks pattern p as failing.
func (s Signature) Set(p int) { s.Bits[p/64] |= 1 << (uint(p) % 64) }

// Fails reports whether pattern p failed.
func (s Signature) Fails(p int) bool {
	return p < s.N && s.Bits[p/64]>>(uint(p)%64)&1 == 1
}

// Weight is the number of failing patterns.
func (s Signature) Weight() int {
	w := 0
	for _, word := range s.Bits {
		w += bits.OnesCount64(word)
	}
	return w
}

// String renders the signature as a 0/1 string, '1' = failing, one
// character per observed pattern — the service wire format.
func (s Signature) String() string {
	out := make([]byte, s.N)
	for p := 0; p < s.N; p++ {
		if s.Fails(p) {
			out[p] = '1'
		} else {
			out[p] = '0'
		}
	}
	return string(out)
}

// ParseSignature parses the 0/1 wire format. Any length is accepted;
// a string shorter than the dictionary's pattern count is a truncated
// observation and ranks over its prefix only.
func ParseSignature(s string) (Signature, error) {
	sig := NewSignature(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			sig.Set(i)
		case '0':
		default:
			return Signature{}, fmt.Errorf("diagnose: signature byte %d is %q (want 0 or 1)", i, s[i])
		}
	}
	return sig, nil
}

// hashRow is the lookup key over a packed row.
func hashRow(row []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range row {
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> uint(8*i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func equalRow(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Options configures Build and Attach. The zero value grades on the
// automatic backend with one worker per CPU over the primary view and
// stores only the compact pass/fail tier.
type Options struct {
	// Backend and Workers select the grading engine configuration;
	// rows are byte-identical for every choice.
	Backend fault.Backend
	Workers int
	// View names the nets the tester controls and observes.
	View fault.View
	// Full additionally stores the per-output full-response tier:
	// which view outputs failed on each pattern, not just that one
	// did. Costs |outputs| bits per fault per pattern.
	Full bool
	// Metrics receives the diagnose.* and fault.sim.* instruments;
	// nil selects telemetry.Default().
	Metrics *telemetry.Registry
}

// Dictionary is a compact binary fault dictionary: the collapsed (or
// caller-chosen) fault list, the test set it was graded against, one
// packed pass/fail row per fault, and optionally the per-output full
// responses. Build-once artifacts: Encode/Decode serialize the whole
// store keyed by the sha256 of the canonical netlist, so a service
// can cache dictionaries exactly like run reports.
//
// Lookup, Rank, Resolution and DistinguishingPattern work on any
// Dictionary, including a freshly decoded one. ObserveMachine and
// Diagnose simulate a defective device and need a circuit: Build
// attaches it, Decode leaves it detached until Attach. Those two are
// safe for concurrent use, and the dictionary keeps no registry of the
// job that built or attached it, so one cached dictionary can serve
// many service jobs at once, each counting its own observations.
type Dictionary struct {
	Faults  []fault.Fault
	NumPats int
	// NetSHA is sha256(logic.CanonicalBench(c)) of the graded circuit.
	NetSHA [32]byte

	rows    [][]uint64 // compact tier: per-fault packed detect bits
	full    [][]uint64 // optional: full[fi][p*poWords+w], bit j = output j differs
	poWords int
	numOuts int
	nInputs int

	byHash map[uint64][]int

	packed *fault.PackedPatterns

	mu   sync.Mutex     // guards c and opts against Attach
	c    *logic.Circuit // attached circuit, nil when detached
	opts Options        // grading options, Metrics always nil
}

// Build grades every fault against every pattern on the fault
// engine's detail path and stores the packed rows. The fault list is
// the caller's — production flows pass the collapsed representatives
// (fault.Collapse) so the dictionary is not inflated with
// equivalence duplicates. Cancellable between pattern blocks.
func Build(ctx context.Context, c *logic.Circuit, faults []fault.Fault, patterns [][]bool, opt Options) (*Dictionary, error) {
	reg := telemetry.OrDefault(opt.Metrics)
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "diagnose.build")
	span.SetAttr("faults", strconv.Itoa(len(faults)))
	span.SetAttr("patterns", strconv.Itoa(len(patterns)))
	defer span.End()

	inputs, outputs := opt.View.Resolve(c)
	if len(inputs) == 0 && len(patterns) > 0 {
		return nil, fmt.Errorf("diagnose: %d patterns over a view with no inputs", len(patterns))
	}
	d := &Dictionary{
		Faults:  faults,
		NumPats: len(patterns),
		NetSHA:  sha256.Sum256([]byte(logic.CanonicalBench(c))),
		poWords: (len(outputs) + 63) / 64,
		numOuts: len(outputs),
		nInputs: len(inputs),
		packed:  fault.PackPatternSet(len(inputs), patterns),
		c:       c,
		opts:    opt,
	}
	d.opts.Metrics = nil
	detail, err := fault.NewEngine(c, engineOptions(d.opts, reg)).RunDetail(ctx, faults, d.packed)
	if err != nil {
		return nil, err
	}
	d.rows = detail.Detect
	d.index()
	if opt.Full {
		if err := d.buildFullTier(ctx, inputs, outputs); err != nil {
			return nil, err
		}
	}
	reg.Counter("diagnose.dict.builds").Inc()
	reg.Counter("diagnose.dict.faults").Add(int64(len(faults)))
	reg.Counter("diagnose.dict.patterns").Add(int64(len(patterns)))
	reg.Gauge("diagnose.dict.bytes").Set(int64(d.CompactBytes() + d.FullBytes()))
	return d, nil
}

// engineOptions is the grading configuration shared by Build and
// ObserveMachine: always drop-off (rows need every bit) and quiet (no
// progress instrument churn on per-device observations), counting
// into reg.
func engineOptions(opt Options, reg *telemetry.Registry) fault.Options {
	return fault.Options{
		Backend:    opt.Backend,
		Workers:    opt.Workers,
		Drop:       fault.DropOff,
		View:       opt.View,
		Metrics:    reg,
		NoProgress: true,
	}
}

// index fills byHash from the rows.
func (d *Dictionary) index() {
	d.byHash = make(map[uint64][]int, len(d.rows))
	for fi := range d.rows {
		h := hashRow(d.rows[fi])
		d.byHash[h] = append(d.byHash[h], fi)
	}
}

// buildFullTier computes the per-output responses on one pooled
// simulator, reusing the packed blocks and skipping every fault/block
// pair the compact tier already proves silent.
func (d *Dictionary) buildFullTier(ctx context.Context, inputs, outputs []int) error {
	d.full = make([][]uint64, len(d.Faults))
	backing := make([]uint64, len(d.Faults)*d.NumPats*d.poWords)
	stride := d.NumPats * d.poWords
	for fi := range d.full {
		d.full[fi] = backing[fi*stride : (fi+1)*stride : (fi+1)*stride]
	}
	ps := fault.NewParallelSimView(d.c, inputs, outputs)
	for bi := 0; bi < d.packed.NumBlocks(); bi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		words, kb := d.packed.Block(bi)
		ps.LoadPackedBlock(words, kb)
		base := bi * 64
		for fi, f := range d.Faults {
			det := d.rows[fi][bi]
			if det == 0 {
				continue // no pattern in this block fails: full words stay 0
			}
			ps.FaultMask(f)
			for j, o := range outputs {
				diff := (ps.FaultyWord(o) ^ ps.GoodWord(o)) & det
				for diff != 0 {
					b := bits.TrailingZeros64(diff)
					diff &= diff - 1
					d.full[fi][(base+b)*d.poWords+j/64] |= 1 << uint(j%64)
				}
			}
		}
	}
	return nil
}

// Attach binds a decoded dictionary to its circuit so ObserveMachine
// and Diagnose can simulate defective devices. The circuit must be
// the one the dictionary was built from: its canonical-netlist sha256
// is checked against the stored NetSHA.
func (d *Dictionary) Attach(c *logic.Circuit, opt Options) error {
	sum := sha256.Sum256([]byte(logic.CanonicalBench(c)))
	if sum != d.NetSHA {
		return fmt.Errorf("diagnose: dictionary was built for a different netlist (sha %x, circuit %x)", d.NetSHA[:8], sum[:8])
	}
	inputs, _ := opt.View.Resolve(c)
	if len(inputs) != d.nInputs {
		return fmt.Errorf("diagnose: dictionary patterns are %d wide, view has %d inputs", d.nInputs, len(inputs))
	}
	opt.Metrics = nil
	d.mu.Lock()
	defer d.mu.Unlock()
	d.c = c
	d.opts = opt
	return nil
}

// Attached reports whether the dictionary can simulate devices.
func (d *Dictionary) Attached() bool { return d.c != nil }

// Circuit returns the attached circuit (nil for a detached decode).
func (d *Dictionary) Circuit() *logic.Circuit { return d.c }

// Patterns materializes the dictionary's test set.
func (d *Dictionary) Patterns() [][]bool { return d.packed.Patterns() }

// Row returns fault fi's packed pass/fail row. Shared storage — do
// not mutate.
func (d *Dictionary) Row(fi int) []uint64 { return d.rows[fi] }

// HasFull reports whether the per-output tier is present.
func (d *Dictionary) HasFull() bool { return d.full != nil }

// FullResponse returns the packed per-output failure word(s) of fault
// fi on pattern p (bit j set when view output j differs), or nil when
// the dictionary was built without the full tier.
func (d *Dictionary) FullResponse(fi, p int) []uint64 {
	if d.full == nil {
		return nil
	}
	return d.full[fi][p*d.poWords : (p+1)*d.poWords]
}

// CompactBytes is the pass/fail tier's storage cost.
func (d *Dictionary) CompactBytes() int {
	return len(d.rows) * detailWords(d.NumPats) * 8
}

// FullBytes is the per-output tier's storage cost (0 when absent).
func (d *Dictionary) FullBytes() int {
	if d.full == nil {
		return 0
	}
	return len(d.full) * d.NumPats * d.poWords * 8
}

// Detects reports whether pattern p detects fault fi.
func (d *Dictionary) Detects(fi, p int) bool {
	return d.rows[fi][p/64]>>(uint(p)%64)&1 == 1
}

// Lookup returns the indices of faults whose row matches the observed
// signature exactly — the observed response-equivalence class. The
// signature must cover the whole test set; use Rank for truncated
// observations.
func (d *Dictionary) Lookup(sig Signature) []int {
	if sig.N != d.NumPats {
		return nil
	}
	var out []int
	for _, fi := range d.byHash[hashRow(sig.Bits)] {
		if equalRow(d.rows[fi], sig.Bits) {
			out = append(out, fi)
		}
	}
	return out
}

// Candidate is one ranked diagnosis: a modeled fault and its Hamming
// distance from the observed signature over the observed prefix.
type Candidate struct {
	Index    int
	Fault    fault.Fault
	Distance int
}

// Rank scores every fault against the observed signature — Hamming
// distance over the first sig.N patterns, so truncated tester logs
// degrade gracefully instead of failing an exact match — and returns
// the k best (all of them when k <= 0), ordered by distance then
// fault index. The true fault always scores distance 0 when the
// observation is a prefix of its true response.
func (d *Dictionary) Rank(sig Signature, k int) []Candidate {
	n := sig.N
	if n > d.NumPats {
		n = d.NumPats
	}
	words := detailWords(n)
	tail := ^uint64(0)
	if r := uint(n % 64); r != 0 {
		tail = 1<<r - 1
	}
	cands := make([]Candidate, len(d.Faults))
	for fi := range d.Faults {
		dist := 0
		row := d.rows[fi]
		for w := 0; w < words; w++ {
			x := row[w] ^ sig.Bits[w]
			if w == words-1 {
				x &= tail
			}
			dist += bits.OnesCount64(x)
		}
		cands[fi] = Candidate{Index: fi, Fault: d.Faults[fi], Distance: dist}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Distance != cands[j].Distance {
			return cands[i].Distance < cands[j].Distance
		}
		return cands[i].Index < cands[j].Index
	})
	if k > 0 && k < len(cands) {
		cands = cands[:k]
	}
	return cands
}

// ObserveMachine runs the test set against a defective device (the
// faulty machine for f) and returns its signature. The grade counts
// its fault.sim.* instruments into reg, the calling job's registry,
// or into telemetry.Default() when none is given. Each call grades on
// its own engine over the shared packed patterns, so concurrent
// service jobs can share the dictionary.
func (d *Dictionary) ObserveMachine(f fault.Fault, reg ...*telemetry.Registry) (Signature, error) {
	d.mu.Lock()
	c, opts := d.c, d.opts
	d.mu.Unlock()
	if c == nil {
		return Signature{}, fmt.Errorf("diagnose: dictionary is detached; Attach a circuit first")
	}
	var r *telemetry.Registry
	if len(reg) > 0 {
		r = reg[0]
	}
	eng := fault.NewEngine(c, engineOptions(opts, telemetry.OrDefault(r)))
	detail, err := eng.RunDetail(context.Background(), []fault.Fault{f}, d.packed)
	if err != nil {
		return Signature{}, err
	}
	return Signature{N: d.NumPats, Bits: detail.Row(0)}, nil
}

// Diagnose observes the defective device and returns the candidate
// faults. The true fault is always among them (when it is in the
// modeled list); the candidate set is its response-equivalence class.
func (d *Dictionary) Diagnose(f fault.Fault) []fault.Fault {
	sig, err := d.ObserveMachine(f)
	if err != nil {
		return nil
	}
	idx := d.Lookup(sig)
	out := make([]fault.Fault, len(idx))
	for i, fi := range idx {
		out[i] = d.Faults[fi]
	}
	return out
}

// DistinguishingPattern searches the test set for a pattern on which
// two faults respond differently (the adaptive-diagnosis primitive);
// returns -1 when the set cannot tell them apart at the pins.
func (d *Dictionary) DistinguishingPattern(fi, fj int) int {
	a, b := d.rows[fi], d.rows[fj]
	for w := range a {
		if x := a[w] ^ b[w]; x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// Narrow adaptively shrinks a candidate set: while at least two
// candidates disagree on some pattern, it queries the observe oracle
// (true = the device fails that pattern — a re-applied tester vector)
// and keeps only the candidates consistent with the answer. budget
// bounds the queries (<= 0 means unbounded); the narrowed set and the
// query count are returned. With a truthful oracle the true fault's
// class always survives.
func (d *Dictionary) Narrow(cands []int, budget int, observe func(p int) bool) ([]int, int) {
	queries := 0
	cur := append([]int(nil), cands...)
	for len(cur) > 1 && (budget <= 0 || queries < budget) {
		p := -1
		for i := 1; i < len(cur) && p < 0; i++ {
			p = d.DistinguishingPattern(cur[0], cur[i])
		}
		if p < 0 {
			break // response-equivalent at the pins; probing territory
		}
		fails := observe(p)
		queries++
		kept := cur[:0]
		for _, fi := range cur {
			if d.Detects(fi, p) == fails {
				kept = append(kept, fi)
			}
		}
		cur = kept
	}
	return cur, queries
}

// Resolution summarizes diagnostic power: the histogram of response-
// equivalence class sizes and the mean candidates per detected fault.
type Resolution struct {
	Classes    int
	MeanSize   float64
	MaxSize    int
	Undetected int // faults with an all-zero row (invisible)
}

// Resolution computes the summary from the index Build (or Decode)
// already populated — no re-hashing.
func (d *Dictionary) Resolution() Resolution {
	var r Resolution
	total := 0
	for _, members := range d.byHash {
		// Split hash buckets into true classes.
		var classes [][]int
		for _, fi := range members {
			placed := false
			for ci := range classes {
				if equalRow(d.rows[fi], d.rows[classes[ci][0]]) {
					classes[ci] = append(classes[ci], fi)
					placed = true
					break
				}
			}
			if !placed {
				classes = append(classes, []int{fi})
			}
		}
		for _, cl := range classes {
			if zeroRow(d.rows[cl[0]]) {
				r.Undetected += len(cl)
				continue
			}
			r.Classes++
			total += len(cl)
			if len(cl) > r.MaxSize {
				r.MaxSize = len(cl)
			}
		}
	}
	if r.Classes > 0 {
		r.MeanSize = float64(total) / float64(r.Classes)
	}
	return r
}

func zeroRow(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
}
