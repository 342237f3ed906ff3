package fuzzdiff

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

var (
	cRounds      = telemetry.Default().Counter("fuzz.rounds")
	cDivergences = telemetry.Default().Counter("fuzz.divergences")
)

// SimConfig pins one cell of the cross-oracle matrix: which
// fault-simulation backend runs, at what sharding degree, and whether
// faults drop after first detection. Every cell must produce
// byte-identical Results on the same circuit/fault-list/pattern-set.
type SimConfig struct {
	Backend fault.Backend
	Workers int
	Drop    fault.DropMode
}

// String renders the config the way repros and test failures name it.
func (sc SimConfig) String() string {
	drop := "on"
	if sc.Drop == fault.DropOff {
		drop = "off"
	}
	return fmt.Sprintf("backend=%v workers=%d drop=%s", sc.Backend, sc.Workers, drop)
}

// Baseline is the reference cell: serial backend, one worker, dropping
// on — the most literal implementation of the paper's
// one-good-machine/one-faulty-machine-per-pattern model. Its good
// machine runs on the interpreted kernel, so the baseline stays
// independent of the compiled kernel every other cell uses.
func Baseline() SimConfig {
	return SimConfig{Backend: fault.BackendSerial, Workers: 1, Drop: fault.DropOn}
}

// Matrix enumerates the configurations CheckBackends sweeps, 16
// cells: the serial backend, the parallel backend at several worker
// counts, the critical-path-tracing backend at two (cpt shards each
// block's reconvergent-stem flips, so its worker cells also pin the
// shared observability trace) and Auto, the production default and
// the one configuration that picks cpt or parallel per block, at two,
// each with dropping on and off. Detection outcomes are defined to be
// drop-invariant, so drop-on cells are compared against the same
// baseline as drop-off cells.
func Matrix() []SimConfig {
	var m []SimConfig
	for _, drop := range []fault.DropMode{fault.DropOn, fault.DropOff} {
		m = append(m, SimConfig{fault.BackendSerial, 1, drop})
		for _, w := range []int{1, 2, 5} {
			m = append(m, SimConfig{fault.BackendParallel, w, drop})
		}
		for _, w := range []int{1, 4} {
			m = append(m, SimConfig{fault.BackendCPT, w, drop})
		}
		for _, w := range []int{1, 2} {
			m = append(m, SimConfig{fault.Auto, w, drop})
		}
	}
	return m
}

// runConfig executes one cell.
func runConfig(ctx context.Context, c *logic.Circuit, faults []fault.Fault, pats [][]bool, sc SimConfig) (*fault.Result, error) {
	return fault.Simulate(ctx, c, faults, pats, fault.Options{
		Backend: sc.Backend,
		Workers: sc.Workers,
		Drop:    sc.Drop,
	})
}

// Divergence is one disagreement between two oracles, carrying enough
// state to replay it: the circuit, the seed that generated it, the
// config pair, and the (minimized) fault list and pattern set.
type Divergence struct {
	// Kind is "kernel" (good-machine valuations differ across kernels
	// or execution widths), "backend" (fault.Result differs across
	// matrix cells), "compact" (the compaction engine disagrees with
	// the baseline grading oracle), "dict" (the fault-dictionary
	// detail grade disagrees with the baseline, or is worker/backend
	// dependent), "advise" (the DFT advisor emitted an unsound or
	// seed-impure plan, or its instrumented netlist grades differently
	// across backends), or "lint" (the generator emitted an invalid
	// netlist — a generator bug).
	Kind string
	// Seed replays the circuit via Generate(ShapeConfig(Seed), Seed)
	// when the divergence came out of Round; 0 for hand-built circuits.
	Seed    int64
	Circuit *logic.Circuit
	// Base and Other name the disagreeing cells (backend kind).
	Base, Other SimConfig
	// Detail describes the first disagreement (net or fault, values on
	// both sides, pattern index).
	Detail string
	// Faults and Patterns are the minimized reproducer inputs. For
	// kernel-kind divergences each pattern row is the primary-input
	// bits followed by the flip-flop state bits.
	Faults   []fault.Fault
	Patterns [][]bool
}

// Repro renders the divergence as a self-contained, replayable report:
// the disagreement, the config pair, the minimized stimulus, the
// replay command, and the full circuit in .bench form.
func (d *Divergence) Repro() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fuzzdiff %s divergence (seed %d)\n", d.Kind, d.Seed)
	fmt.Fprintf(&b, "detail: %s\n", d.Detail)
	if d.Kind == "backend" {
		fmt.Fprintf(&b, "config A: %s\nconfig B: %s\n", d.Base, d.Other)
	}
	for _, f := range d.Faults {
		fmt.Fprintf(&b, "fault: %s\n", f.Name(d.Circuit))
	}
	for i, p := range d.Patterns {
		fmt.Fprintf(&b, "pattern[%d] = %s\n", i, patString(p))
	}
	if d.Seed != 0 {
		fmt.Fprintf(&b, "replay: dftc fuzz -seeds %d\n", d.Seed)
	}
	fmt.Fprintf(&b, "--- circuit %s (.bench) ---\n%s", d.Circuit.Name, logic.BenchString(d.Circuit))
	return b.String()
}

func patString(p []bool) string {
	buf := make([]byte, len(p))
	for i, v := range p {
		if v {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// RandomPatterns draws n random patterns of the given width from the
// seed, the same stream the dftc fuzz subcommand and the fuzz targets
// use, so reported seeds replay bit-for-bit.
func RandomPatterns(width, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, width)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

// CheckKernels compiles the circuit and cross-checks every execution
// width of the compiled kernel against the interpreted reference. A
// nil result means all oracles agree on every net.
func CheckKernels(c *logic.Circuit, seed int64, vectors int) *Divergence {
	return CheckProgram(c, sim.Compile(c), seed, vectors)
}

// CheckProgram is CheckKernels against an explicit compiled program —
// the seam that lets tests corrupt a Program and prove the harness
// catches it. It compares, on every net:
//
//   - interpreted scalar vs compiled scalar (ExecBool), per vector;
//   - interpreted 64-way word vs compiled word (Exec);
//   - interpreted scalar vs interpreted word, bit-extracted (the
//     exec-width axis independent of the compiler).
func CheckProgram(c *logic.Circuit, p *sim.Program, seed int64, vectors int) *Divergence {
	if vectors <= 0 {
		vectors = 8
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	n := c.NumNets()
	nPI, nFF := len(c.PIs), len(c.DFFs)

	// Scalar: interpreted vs compiled, vector by vector.
	ref := make([]bool, n)
	got := make([]bool, n)
	for v := 0; v < vectors; v++ {
		pi := randBools(rng, nPI)
		st := randBools(rng, nFF)
		sim.EvalInterpInto(c, pi, st, ref, nil)
		p.EvalInto(pi, st, got)
		for id := 0; id < n; id++ {
			if ref[id] != got[id] {
				return kernelDivergence(c, id, pi, st,
					fmt.Sprintf("net %s: interp(scalar)=%v compiled(scalar)=%v", c.NameOf(id), ref[id], got[id]))
			}
		}
	}

	// Word: interpreted vs compiled over one 64-pattern block.
	piW := randWords(rng, nPI)
	stW := randWords(rng, nFF)
	refW := make(sim.Words, n)
	gotW := make(sim.Words, n)
	sim.EvalWordsInterpInto(c, piW, stW, refW, nil)
	p.EvalWordsInto(piW, stW, gotW)
	for id := 0; id < n; id++ {
		if refW[id] != gotW[id] {
			bit := firstDiffBit(refW[id], gotW[id])
			pi, st := extractBit(piW, stW, bit)
			return kernelDivergence(c, id, pi, st,
				fmt.Sprintf("net %s: interp(word)=%d compiled(word)=%d at block bit %d",
					c.NameOf(id), refW[id]>>uint(bit)&1, gotW[id]>>uint(bit)&1, bit))
		}
	}

	// Exec-width cross-check: a word-kernel bit must equal the scalar
	// kernel run on that bit's extracted pattern (interpreted on both
	// sides, so this pins the width axis independently of the compiler).
	for _, bit := range []int{0, 31, 63} {
		pi, st := extractBit(piW, stW, bit)
		sim.EvalInterpInto(c, pi, st, ref, nil)
		for id := 0; id < n; id++ {
			if ref[id] != (refW[id]>>uint(bit)&1 == 1) {
				return kernelDivergence(c, id, pi, st,
					fmt.Sprintf("net %s: interp(scalar)=%v disagrees with interp(word) bit %d", c.NameOf(id), ref[id], bit))
			}
		}
	}

	return nil
}

// kernelDivergence packages a kernel-kind finding with its single
// offending vector (PI bits then state bits) as the minimized repro.
func kernelDivergence(c *logic.Circuit, net int, pi, st []bool, detail string) *Divergence {
	vec := make([]bool, 0, len(pi)+len(st))
	vec = append(vec, pi...)
	vec = append(vec, st...)
	_ = net
	return &Divergence{
		Kind:     "kernel",
		Circuit:  c,
		Detail:   detail + fmt.Sprintf(" [pattern = PI bits %d..%d, state bits %d..%d]", 0, len(pi)-1, len(pi), len(pi)+len(st)-1),
		Patterns: [][]bool{vec},
	}
}

func randBools(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// firstDiffBit returns the lowest bit position where a and b differ.
func firstDiffBit(a, b uint64) int {
	x := a ^ b
	for i := 0; i < 64; i++ {
		if x>>uint(i)&1 == 1 {
			return i
		}
	}
	return 0
}

// extractBit slices one scalar (pi, state) vector out of packed words.
func extractBit(piW, stW []uint64, bit int) (pi, st []bool) {
	pi = make([]bool, len(piW))
	for i, w := range piW {
		pi[i] = w>>uint(bit)&1 == 1
	}
	st = make([]bool, len(stW))
	for i, w := range stW {
		st[i] = w>>uint(bit)&1 == 1
	}
	return pi, st
}

// CheckBackends grades the fault list against the pattern set in every
// matrix cell and compares each Result to the baseline cell's,
// field by field. The first disagreement is minimized (single fault,
// shortest pattern prefix) and returned; nil means all cells agree.
func CheckBackends(ctx context.Context, c *logic.Circuit, faults []fault.Fault, pats [][]bool, seed int64) (*Divergence, error) {
	base := Baseline()
	want, err := runConfig(ctx, c, faults, pats, base)
	if err != nil {
		return nil, err
	}
	for _, sc := range Matrix() {
		if sc == base {
			continue
		}
		got, err := runConfig(ctx, c, faults, pats, sc)
		if err != nil {
			return nil, err
		}
		if i := firstResultDiff(want, got); i >= 0 {
			d := &Divergence{
				Kind:    "backend",
				Seed:    seed,
				Circuit: c,
				Base:    base,
				Other:   sc,
				Detail: fmt.Sprintf("fault %s: %s -> detected=%v by=%d; %s -> detected=%v by=%d",
					faults[i].Name(c), base, want.Detected[i], want.DetectedBy[i], sc, got.Detected[i], got.DetectedBy[i]),
				Faults:   faults,
				Patterns: pats,
			}
			d.minimizeBackend(ctx, i)
			return d, nil
		}
	}
	return nil, nil
}

// firstResultDiff returns the index of the first fault whose outcome
// differs between the two results, or -1 when they are identical.
func firstResultDiff(a, b *fault.Result) int {
	for i := range a.Faults {
		if a.Detected[i] != b.Detected[i] || a.DetectedBy[i] != b.DetectedBy[i] {
			return i
		}
	}
	if a.NumCaught != b.NumCaught {
		return 0 // bookkeeping drift with identical per-fault outcomes
	}
	return -1
}

// diverges reruns the config pair on a candidate reduction and reports
// whether the disagreement survives.
func (d *Divergence) diverges(ctx context.Context, faults []fault.Fault, pats [][]bool) bool {
	a, errA := runConfig(ctx, d.Circuit, faults, pats, d.Base)
	b, errB := runConfig(ctx, d.Circuit, faults, pats, d.Other)
	if errA != nil || errB != nil {
		return false
	}
	return firstResultDiff(a, b) >= 0
}

// minimizeBackend shrinks the repro: first to the single disagreeing
// fault, then to the shortest pattern prefix that still disagrees
// (disagreement is monotone in the prefix past the first divergent
// detection event, so a binary search applies), and finally to the
// lone last pattern when it disagrees on its own.
func (d *Divergence) minimizeBackend(ctx context.Context, idx int) {
	if single := d.Faults[idx : idx+1]; d.diverges(ctx, single, d.Patterns) {
		d.Faults = single
	}
	lo, hi := 1, len(d.Patterns)
	if !d.diverges(ctx, d.Faults, d.Patterns[:hi]) {
		return // reduction interplay; keep the full set
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if d.diverges(ctx, d.Faults, d.Patterns[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	d.Patterns = d.Patterns[:hi]
	if hi > 1 {
		if last := d.Patterns[hi-1:]; d.diverges(ctx, d.Faults, last) {
			d.Patterns = last
		}
	}
}

// RoundOptions sizes one fuzz round.
type RoundOptions struct {
	// Patterns is the random pattern budget per round (default 64).
	Patterns int
	// Vectors is the kernel-check vector budget (default 8).
	Vectors int
}

// Round runs one complete differential round for a seed: generate a
// circuit from the config, lint it, cross-check the kernels at every
// execution width, sweep the backend matrix over a collapsed fault
// list and a seeded random pattern set, then cross-check the
// compaction engine and the fault-dictionary detail grade against the
// baseline grading oracle. It returns the first divergence, or nil for
// a clean round. The fuzz.rounds and fuzz.divergences counters record
// the outcome.
func Round(cfg Config, seed int64, opt RoundOptions) *Divergence {
	if opt.Patterns <= 0 {
		opt.Patterns = 64
	}
	cRounds.Inc()
	c := Generate(cfg, seed)
	if ds := Lint(c); HasErrors(ds) {
		cDivergences.Inc()
		return &Divergence{Kind: "lint", Seed: seed, Circuit: c, Detail: Errors(ds)[0].String()}
	}
	if d := CheckKernels(c, seed, opt.Vectors); d != nil {
		cDivergences.Inc()
		d.Seed = seed
		return d
	}
	faults := fault.Collapse(c).Reps
	pats := RandomPatterns(len(c.PIs), opt.Patterns, seed^0x6A09E667)
	d, err := CheckBackends(context.Background(), c, faults, pats, seed)
	if err != nil {
		d = &Divergence{Kind: "backend", Seed: seed, Circuit: c, Detail: "run error: " + err.Error()}
	}
	if d == nil {
		d, err = CheckCompaction(context.Background(), c, faults, pats, seed)
		if err != nil {
			d = &Divergence{Kind: "compact", Seed: seed, Circuit: c, Detail: "run error: " + err.Error()}
		}
	}
	if d == nil {
		d, err = CheckDictionary(context.Background(), c, faults, pats, seed)
		if err != nil {
			d = &Divergence{Kind: "dict", Seed: seed, Circuit: c, Detail: "run error: " + err.Error()}
		}
	}
	if d == nil {
		d, err = CheckAdvise(context.Background(), c, seed)
		if err != nil {
			d = &Divergence{Kind: "advise", Seed: seed, Circuit: c, Detail: "run error: " + err.Error()}
		}
	}
	if d != nil {
		cDivergences.Inc()
	}
	return d
}
