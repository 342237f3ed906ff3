package pipeline

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dft/internal/compact"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// FaultSim grades a seeded random pattern set against the collapsed
// fault list (`dftc faultsim`, kind faultsim). With CompactMode set it
// compacts the set instead and reports the compaction; `dftc compact
// -random` is that case.
type FaultSim struct {
	Patterns    int
	Seed        int64
	Scan        bool
	Backend     string // auto|parallel|cpt|serial
	Drop        string // on|off
	CompactMode string // off|reverse|full
	Workers     int
}

// FaultSimResult is a graded pattern set.
type FaultSimResult struct {
	Patterns int // patterns drawn and graded
	Targets  int
	Detected int
	Coverage float64
	// Kept counts the patterns that first detect some fault: the set
	// reverse-order compaction would retain, or the compacted set.
	Kept int
	// Compaction and KeptPatterns are set when CompactMode ran.
	Compaction   *compact.Stats
	KeptPatterns [][]bool
}

func (s FaultSim) parse() (fault.Backend, fault.DropMode, compact.Mode, error) {
	if err := inRange(count{"patterns", s.Patterns, MaxPatterns}, count{"workers", s.Workers, MaxWorkers}); err != nil {
		return 0, 0, 0, err
	}
	backend, err := fault.ParseBackend(s.Backend)
	if err != nil {
		return 0, 0, 0, err
	}
	drop := fault.DropOn
	switch s.Drop {
	case "", "on":
	case "off":
		drop = fault.DropOff
	default:
		return 0, 0, 0, fmt.Errorf("unknown drop %q (want on or off)", s.Drop)
	}
	mode, err := compact.ParseMode(s.CompactMode)
	return backend, drop, mode, err
}

// Validate checks the spec without running it.
func (s FaultSim) Validate() error {
	_, _, _, err := s.parse()
	return err
}

// Run grades the spec's pattern set on c. Coverage is bit-identical to
// a direct fault.Simulate call with the same circuit, seed and options.
func (s FaultSim) Run(ctx context.Context, c *logic.Circuit, reg *telemetry.Registry) (*FaultSimResult, *telemetry.Report, error) {
	backend, drop, mode, err := s.parse()
	if err != nil {
		return nil, nil, err
	}
	d, err := design(c, s.Scan)
	if err != nil {
		return nil, nil, err
	}
	n := cmp.Or(s.Patterns, DefaultFaultSimPatterns)
	seed := cmp.Or(s.Seed, DefaultSeed)
	view := d.View()
	faults := d.Faults()
	pats := fuzzdiff.RandomPatterns(len(view.Inputs), n, seed)
	out := &FaultSimResult{Patterns: n, Targets: len(faults)}
	if mode.Enabled() {
		// Compaction replays the same engine grade internally
		// (detection outcomes are drop-invariant), so its before-side
		// stats are the plain grade; simulating first would grade the
		// whole set twice for the same numbers.
		kept, cst, err := compact.Patterns(ctx, d.Circuit, view, faults, pats, compact.Options{
			Mode: mode, Workers: s.Workers, Seed: seed, Metrics: reg,
		})
		if err != nil {
			return nil, nil, err
		}
		out.Coverage, out.Detected, out.Kept = cst.Coverage, cst.Detected, cst.PatternsOut
		out.Compaction, out.KeptPatterns = cst, kept
	} else {
		res, err := fault.Simulate(ctx, d.Circuit, faults, pats, fault.Options{
			Backend: backend,
			Workers: s.Workers,
			Drop:    drop,
			View:    view,
			Metrics: reg,
		})
		if err != nil {
			return nil, nil, err
		}
		kept := make(map[int]bool)
		for _, pi := range res.DetectedBy {
			if pi >= 0 {
				kept[pi] = true
			}
		}
		out.Coverage, out.Detected, out.Kept = res.Coverage(), res.NumCaught, len(kept)
	}

	rep := newReport("faultsim", Seeded(s.Seed, map[string]any{
		"patterns": n, "scan": s.Scan, "engine": backend.String(), "workers": s.Workers,
		"drop": drop == fault.DropOn, "compact_mode": mode.String(),
	}))
	prog := sim.CompiledFor(d.Circuit)
	rep.Results = map[string]any{
		"coverage":      out.Coverage,
		"kept_patterns": out.Kept,
		"targets":       out.Targets,
		"detected":      out.Detected,
		"folded_gates":  prog.Folded(),
		"hashed_gates":  prog.Hashed(),
	}
	if cst := out.Compaction; cst != nil {
		rep.Results["patterns_in"] = cst.PatternsIn
		rep.Results["patterns_out"] = cst.PatternsOut
		rep.Results["compact_ratio"] = cst.Ratio
		rep.Results["replay_passes"] = cst.ReplayPasses
	}
	return out, rep, nil
}

// Diagnose builds a pass/fail fault dictionary over the collapsed
// fault list and a compacted seeded pattern set, then ranks candidates
// for the evidence, if any (`dftc diagnose`, kind diagnose).
type Diagnose struct {
	Patterns    int
	Seed        int64
	Scan        bool
	Backend     string // auto|parallel|cpt|serial
	Workers     int
	CompactMode string // default reverse; "off" grades the raw set
	Full        bool   // also store the per-output full-response tier
	Inject      string // a fault in fault.ParseFault form, e.g. "g12 s-a-0"
	Signature   string // '1' = pattern failed; may be shorter than the dictionary
	Top         int    // ranked candidates reported
	// Dictionary, when non-nil, supplies the dictionary: the service
	// passes its cache, the CLI a decoded -load file. Nil builds it.
	Dictionary DictSource
}

// DictBuild is a fault dictionary with the compaction stats of its
// pattern set (nil when compaction was off or the dictionary was
// decoded from a file).
type DictBuild struct {
	Dict       *diagnose.Dictionary
	Compaction *compact.Stats
}

// DictSource returns the dictionary stored under key, or calls build
// and may keep the result; the bool reports that build was not called.
// The key covers the netlist and every input that changes the stored
// bits, but not workers or backend, which never change a row. A
// detached (decoded) dictionary is attached to the run's circuit.
type DictSource func(key string, build func() (DictBuild, error)) (DictBuild, bool, error)

// DiagnoseResult is a dictionary and, given evidence, the diagnosis.
type DiagnoseResult struct {
	Circuit    *logic.Circuit // the diagnosed circuit, scanned if Scan
	Classes    fault.Classes
	Dict       *diagnose.Dictionary
	Compaction *compact.Stats
	Injected   fault.Fault
	Observed   diagnose.Signature
	Ranked     []diagnose.Candidate
}

func (s Diagnose) parse() (fault.Backend, compact.Mode, error) {
	if err := inRange(count{"patterns", s.Patterns, MaxPatterns}, count{"workers", s.Workers, MaxWorkers}, count{"top", s.Top, MaxTop}); err != nil {
		return 0, 0, err
	}
	if s.Inject != "" && s.Signature != "" {
		return 0, 0, fmt.Errorf("give signature or inject, not both")
	}
	if _, err := diagnose.ParseSignature(s.Signature); err != nil {
		return 0, 0, err
	}
	if s.Inject != "" {
		// Syntax only: the gate range depends on the scanned circuit,
		// so Run checks it.
		if _, err := fault.ParseFault(s.Inject); err != nil {
			return 0, 0, err
		}
	}
	backend, err := fault.ParseBackend(s.Backend)
	if err != nil {
		return 0, 0, err
	}
	mode, err := compact.ParseMode(cmp.Or(s.CompactMode, DefaultDiagnoseCompact))
	return backend, mode, err
}

// Validate checks the spec without running it.
func (s Diagnose) Validate() error {
	_, _, err := s.parse()
	return err
}

// Run builds or fetches the dictionary for c and diagnoses the
// evidence against it.
func (s Diagnose) Run(ctx context.Context, c *logic.Circuit, reg *telemetry.Registry) (*DiagnoseResult, *telemetry.Report, error) {
	backend, mode, err := s.parse()
	if err != nil {
		return nil, nil, err
	}
	d, err := design(c, s.Scan)
	if err != nil {
		return nil, nil, err
	}
	n := cmp.Or(s.Patterns, DefaultDiagnosePatterns)
	seed := cmp.Or(s.Seed, DefaultSeed)
	top := cmp.Or(s.Top, DefaultTop)
	view := d.View()
	// Diagnose over the collapsed representatives: structurally
	// equivalent faults can never be told apart at the pins, so the
	// raw universe would only pad every row and class with duplicates.
	cl := fault.Collapse(d.Circuit)
	dopt := diagnose.Options{
		Backend: backend,
		Workers: s.Workers,
		View:    view,
		Full:    s.Full,
		Metrics: reg,
	}
	// Compacting first is free resolution per byte: the compacted set
	// keeps the coverage at a fraction of the patterns, and dictionary
	// size is patterns × faults. It runs only when the dictionary is
	// built, so a cache hit skips it.
	build := func() (DictBuild, error) {
		pats := fuzzdiff.RandomPatterns(len(view.Inputs), n, seed)
		var cst *compact.Stats
		if mode.Enabled() {
			var err error
			pats, cst, err = compact.Patterns(ctx, d.Circuit, view, cl.Reps, pats, compact.Options{
				Mode: mode, Workers: s.Workers, Seed: seed, Metrics: reg,
			})
			if err != nil {
				return DictBuild{}, err
			}
		}
		dict, err := diagnose.Build(ctx, d.Circuit, cl.Reps, pats, dopt)
		return DictBuild{Dict: dict, Compaction: cst}, err
	}
	var b DictBuild
	cached := false
	if s.Dictionary == nil {
		b, err = build()
	} else {
		// The key: the build inputs and the unscanned netlist.
		h := sha256.New()
		fmt.Fprintf(h, "dict\nscan=%v\npatterns=%d\nseed=%d\nmode=%s\nfull=%v\n", s.Scan, n, seed, mode.String(), s.Full)
		h.Write([]byte(logic.CanonicalBench(c)))
		b, cached, err = s.Dictionary(hex.EncodeToString(h.Sum(nil)), build)
	}
	if err != nil {
		return nil, nil, err
	}
	dict := b.Dict
	if !dict.Attached() {
		if err := dict.Attach(d.Circuit, dopt); err != nil {
			return nil, nil, err
		}
	}
	out := &DiagnoseResult{Circuit: d.Circuit, Classes: cl, Dict: dict, Compaction: b.Compaction}

	rep := newReport("diagnose", Seeded(s.Seed, map[string]any{
		"patterns": n, "scan": s.Scan, "engine": backend.String(), "workers": s.Workers,
		"compact_mode": mode.String(), "top": top, "dict_full": s.Full,
	}))
	res := dict.Resolution()
	rep.Results = map[string]any{
		"universe":        cl.UniverseSize(),
		"collapsed":       len(cl.Reps),
		"dict_faults":     len(dict.Faults),
		"dict_patterns":   dict.NumPats,
		"dict_bytes":      dict.CompactBytes(),
		"dict_full_bytes": dict.FullBytes(),
		"dict_cached":     cached,
		"classes":         res.Classes,
		"mean_class":      res.MeanSize,
		"max_class":       res.MaxSize,
		"undetected":      res.Undetected,
	}
	if cst := b.Compaction; cst != nil {
		rep.Results["patterns_in"] = cst.PatternsIn
		rep.Results["compact_ratio"] = cst.Ratio
	}

	switch {
	case s.Inject != "":
		f, _ := fault.ParseFault(s.Inject) // syntax checked by parse
		if err := f.Validate(d.Circuit); err != nil {
			return nil, nil, err
		}
		if out.Observed, err = dict.ObserveMachine(f, reg); err != nil {
			return nil, nil, err
		}
		out.Injected = f
		rep.Config["inject"] = f.String()
		rep.Results["injected"] = f.Name(d.Circuit)
		if classID, ok := cl.Class(f); ok {
			rep.Results["injected_rep"] = cl.Reps[classID].String()
		}
	case s.Signature != "":
		out.Observed, _ = diagnose.ParseSignature(s.Signature) // checked by parse
		if out.Observed.N > dict.NumPats {
			return nil, nil, fmt.Errorf("signature covers %d patterns, dictionary has %d", out.Observed.N, dict.NumPats)
		}
	default:
		return out, rep, nil
	}

	sig := out.Observed
	out.Ranked = dict.Rank(sig, top)
	cands := make([]map[string]any, len(out.Ranked))
	for i, cand := range out.Ranked {
		cands[i] = map[string]any{
			"fault":    cand.Fault.String(),
			"name":     cand.Fault.Name(d.Circuit),
			"distance": cand.Distance,
		}
	}
	rep.Results["candidates"] = cands
	rep.Results["observed_fails"] = sig.Weight()
	rep.Results["observed_patterns"] = sig.N
	if sig.N == dict.NumPats {
		exact := dict.Lookup(sig)
		rep.Results["class_size"] = len(exact)
		if s.Inject != "" {
			hit := false
			for _, fi := range exact {
				hit = hit || dict.Faults[fi].String() == rep.Results["injected_rep"]
			}
			rep.Results["hit"] = hit
		}
	}
	return out, rep, nil
}
