// Command dftc is the toolkit's command-line front end: circuit
// inspection, SCOAP testability analysis, ATPG, fault simulation, scan
// insertion, BILBO self-test planning, syndrome/Walsh measurement,
// LFSR utilities, bridging/stuck-open/sequential extensions, fault
// diagnosis, profiling, and regeneration of every paper experiment.
//
// Usage:
//
//	dftc info      <file.bench> [-top N] [-json]
//	dftc scoap     <file.bench> [-top N]
//	dftc atpg      <file.bench> [-engine podem|dalg] [-scan] [-random N] [-compact off|reverse|static|dynamic|full] [-workers N] [-timeout D] [-json]
//	dftc compact   <file.bench> [-mode reverse|static|full] [-in cubes.txt | -random N] [-seed S] [-scan] [-workers N] [-timeout D] [-json] [-out file]
//	dftc faultsim  <file.bench> [-patterns N] [-seed S] [-scan] [-engine auto|parallel|cpt|serial] [-workers N] [-timeout D] [-json]
//	dftc scan      <file.bench> [-style lssd|mux]
//	dftc bilbo     <c1.bench> <c2.bench> [-patterns N]
//	dftc syndrome  <file.bench>
//	dftc walsh     <file.bench> [-out K]
//	dftc lfsr      [-width N] [-clocks K]
//	dftc bench     <generator> [args...]   (emit a library circuit as .bench)
//	dftc bridge    <file.bench> [-limit N] [-window W] [-seed S]
//	dftc cmos      <file.bench> [-seed S]
//	dftc seqtest   <file.bench> [-frames N]
//	dftc diagnose  <file.bench> [-patterns N] [-seed S] [-scan] [-engine B] [-workers N] [-compact M] [-full] [-save F | -load F] [-inject "gN s-a-V" | -signature 0101...] [-top N] [-json]
//	dftc advise    (<file.bench> | -builtin name [-n N]) [-target T] [-budget B] [-max-steps N] [-patterns N] [-seed S] [-workers N] [-style lssd|mux] [-timeout D] [-json] [-out plan.json]
//	dftc profile   <file.bench> [-seed S] [-json]
//	dftc experiments [id] [-json]
//	dftc fuzz      [-rounds N] [-seeds a,b,c] [-patterns N] [-json]
//	dftc watch     <server> <job-id> [-json] [-retries N]
//
// The global -stats flag (accepted anywhere on the command line) dumps
// a telemetry summary — counters, timers, histograms, trace — to
// stderr after the subcommand finishes. Subcommands with -json emit a
// machine-readable run report (schema dft.run-report/v1) on stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"dft/internal/atpg"
	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/experiments"
	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/sim"
	"dft/internal/suggest"
	"dft/internal/syndrome"
	"dft/internal/telemetry"
	"dft/internal/testability"
	"dft/internal/walsh"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dftc:", err)
		os.Exit(1)
	}
}

// subcommands maps names to implementations; run dispatches through it
// and the unknown-subcommand path mines it for suggestions.
var subcommands = map[string]func([]string) error{
	"info":        cmdInfo,
	"scoap":       cmdScoap,
	"atpg":        cmdATPG,
	"compact":     cmdCompact,
	"faultsim":    cmdFaultSim,
	"scan":        cmdScan,
	"bilbo":       cmdBILBO,
	"syndrome":    cmdSyndrome,
	"walsh":       cmdWalsh,
	"lfsr":        cmdLFSR,
	"bench":       cmdBench,
	"bridge":      cmdBridge,
	"cmos":        cmdCMOS,
	"seqtest":     cmdSeqTest,
	"diagnose":    cmdDiagnose,
	"advise":      cmdAdvise,
	"profile":     cmdProfile,
	"experiments": cmdExperiments,
	"fuzz":        cmdFuzz,
	"watch":       cmdWatch,
}

func run(args []string) error {
	args, stats := stripStatsFlag(args)
	if stats {
		defer func() {
			fmt.Fprint(os.Stderr, "\n-- telemetry --\n"+telemetry.Default().Snapshot().Summary())
		}()
	}
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]
	if fn, ok := subcommands[cmd]; ok {
		return fn(rest)
	}
	switch cmd {
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	if near := suggest.Closest(cmd, names); near != "" {
		return fmt.Errorf("unknown subcommand %q (did you mean %q?)", cmd, near)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// parseFlags parses like fs.Parse but accepts flags after positional
// arguments (the flag package stops at the first non-flag token, which
// would silently drop `dftc atpg file.bench -json`).
func parseFlags(fs *flag.FlagSet, args []string) error {
	var pos []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return err
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	return fs.Parse(pos)
}

// timeoutContext wraps Background with the -timeout flag: zero means
// no deadline. The CLI and the dftd service share the same
// context-cancellation path through atpg and the fault engine, so a
// run that blows its budget exits with a context error instead of
// hanging the terminal (or the job queue).
func timeoutContext(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

// stripStatsFlag removes every bare -stats/--stats token so the flag
// works globally, before or after the subcommand.
func stripStatsFlag(args []string) (out []string, stats bool) {
	out = args[:0:0]
	for _, a := range args {
		if a == "-stats" || a == "--stats" {
			stats = true
			continue
		}
		out = append(out, a)
	}
	return out, stats
}

func usage() {
	fmt.Fprintln(os.Stderr, `dftc — design-for-testability toolkit (Williams & Parker 1982 reproduction)

subcommands:
  info <f.bench> [-top N] [-json]     structural summary; -json adds a
                                      testability section with per-net
                                      SCOAP + COP metrics
  scoap <f.bench> [-top N]            SCOAP testability analysis
  atpg <f.bench> [flags]              deterministic test generation
                                      (-compact off|reverse|static|dynamic|full
                                      shrinks the set before reporting)
  compact <f.bench> [flags]           compact a test set: -in cubes.txt reads
                                      01X cubes (one per line), -random N
                                      compacts a seeded random set; kept
                                      patterns print to stdout or -out file
  faultsim <f.bench> [flags]          random-pattern fault grading
  scan <f.bench> [-style lssd|mux]    scan insertion, emits .bench
  bilbo <c1> <c2> [-patterns N]       BILBO self-test coverage
  syndrome <f.bench>                  syndrome measurement per output
  walsh <f.bench> [-out K]            C0 / C_all measurement
  lfsr [-width N] [-clocks K]         maximal LFSR state sequence
  bench <gen> [args...]               emit a library circuit (c17, adder,
                                      mult, parity, decoder, mux, cmp, maj,
                                      alu74181, alu74181x, counter, shift,
                                      johnson, gray, hardcore)
  bridge <f.bench> [flags]            bridging-fault coverage of an SSA set
  cmos <f.bench>                      stuck-open two-pattern testing
  seqtest <f.bench> [-frames N]       sequential ATPG (time-frame expansion)
  diagnose <f.bench> [flags]          fault-dictionary diagnosis: build a
                                      compact pass/fail dictionary over the
                                      collapsed faults (-save/-load persist
                                      it), then -inject or -signature maps an
                                      observed failure to ranked candidates
  advise <f.bench> [flags]            closed-loop DFT advisor: probe with
                                      bounded ATPG/fault-sim, score test
                                      points and partial scan by predicted
                                      gain per gate, apply the cheapest,
                                      repeat to -target within -budget;
                                      -out saves the machine-readable plan
  profile <f.bench> [-seed S] [-json] standard workload with per-phase timing
  experiments [id] [-json]            regenerate paper tables/figures
  fuzz [-rounds N] [-seeds a,b,c]     differential fuzz: every kernel/backend
                                      config must agree; prints replayable
                                      repros for divergences
  watch <server> <job-id>             follow a dftd job's live event stream
                                      (queue position, phases, progress);
                                      exits with the job's fate

global flags:
  -stats            dump telemetry (counters/timers/trace) to stderr at exit
  -json             on atpg/faultsim/profile/experiments: machine-readable
                    run report (schema dft.run-report/v1) on stdout

fault-simulation engine (atpg/faultsim):
  -workers N        shard the fault list across N workers (0 = all CPUs);
                    results are bit-identical for every worker count
  -engine B         faultsim backend: auto (default), parallel (64-wide
                    PPSFP), cpt (critical-path tracing), serial
  -timeout D        abort the run after duration D (e.g. 30s, 5m); exits
                    non-zero with a context error. 0 (default) = no limit`)
}

func loadDesign(path string) (*core.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(path, f)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	top := fs.Int("top", 10, "hardest nets in the testability section")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *jsonOut {
		view := d.View()
		rep := telemetry.NewReport("dftc", "info", fs.Arg(0))
		rep.Config = map[string]any{"top": *top}
		rep.Results = map[string]any{
			"gates":   d.Circuit.NumGates(),
			"dffs":    d.Circuit.NumDFFs(),
			"inputs":  len(d.Circuit.PIs),
			"outputs": len(d.Circuit.POs),
			"targets": len(d.Faults()),
			"testability": testability.ReportSection(
				d.Circuit, view.Inputs, view.Outputs, d.Faults(), *top),
		}
		return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
	}
	fmt.Println(d.Circuit.Stats())
	fmt.Printf("collapsed fault targets: %d\n", len(d.Faults()))
	for _, diag := range d.Diagnostics() {
		fmt.Println(diag)
	}
	return nil
}

func cmdScoap(args []string) error {
	fs := flag.NewFlagSet("scoap", flag.ContinueOnError)
	top := fs.Int("top", 10, "hardest nets to list")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scoap needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	sum, hardest := d.Analyze(*top)
	fmt.Println(sum)
	fmt.Printf("%-20s %8s %8s %8s\n", "net", "CC0", "CC1", "CO")
	for _, h := range hardest {
		fmt.Printf("%-20s %8d %8d %8d\n", h.Name, h.CC0, h.CC1, h.CO)
	}
	return nil
}

func cmdATPG(args []string) error {
	fs := flag.NewFlagSet("atpg", flag.ContinueOnError)
	engine := fs.String("engine", "podem", "podem or dalg")
	scan := fs.Bool("scan", false, "assume full scan (LSSD view)")
	random := fs.Int("random", 0, "random-first pattern budget")
	compactFlag := fs.String("compact", "off", "compaction mode: off, reverse, static, dynamic or full")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "fault-sharding workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("atpg needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return err
		}
	}
	e := atpg.EnginePodem
	if *engine == "dalg" {
		e = atpg.EngineDAlg
	} else if *engine != "podem" {
		return fmt.Errorf("unknown engine %q", *engine)
	}
	mode, err := compact.ParseMode(*compactFlag)
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	ts, err := d.GenerateContext(ctx, core.GenerateOptions{
		Engine: e, RandomFirst: *random, Seed: *seed, CompactMode: mode,
		Workers: *workers,
	})
	if err != nil {
		return fmt.Errorf("atpg on %s gave up after -timeout %v: %w", fs.Arg(0), *timeout, err)
	}
	if *jsonOut {
		rep := telemetry.NewReport("dftc", "atpg", fs.Arg(0))
		rep.Config = map[string]any{
			"engine":  *engine,
			"scan":    *scan,
			"random":  *random,
			"compact": mode.String(),
			"seed":    *seed,
			"workers": *workers,
		}
		rep.Results = map[string]any{
			"patterns":     len(ts.Patterns),
			"coverage":     ts.Coverage,
			"raw_coverage": ts.RawCover,
			"untestable":   ts.Untestable,
			"aborted":      ts.Aborted,
			"targets":      ts.TargetN,
			"gates":        d.Circuit.NumGates(),
			"dffs":         d.Circuit.NumDFFs(),
		}
		if st := ts.Compaction; st != nil {
			rep.Results["patterns_in"] = st.PatternsIn
			rep.Results["patterns_out"] = st.PatternsOut
			rep.Results["compact_ratio"] = st.Ratio
			rep.Results["replay_passes"] = st.ReplayPasses
			rep.Results["merge_attempts"] = st.MergeAttempts
			rep.Results["merge_hits"] = st.MergeHits
		}
		return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
	}
	fmt.Print(d.BuildReport(ts))
	if st := ts.Compaction; st != nil {
		note := "coverage unchanged"
		if st.DetectedOut > st.DetectedIn {
			note = fmt.Sprintf("coverage +%d faults", st.DetectedOut-st.DetectedIn)
		}
		fmt.Printf("compact   : patterns %d -> %d (%.1fx, %d replay passes), %s\n",
			st.PatternsIn, st.PatternsOut, st.Ratio, st.ReplayPasses, note)
	}
	if ts.Untestable > 0 {
		fmt.Printf("untestable (redundant) faults: %d\n", ts.Untestable)
	}
	if ts.Aborted > 0 {
		fmt.Printf("aborted faults: %d\n", ts.Aborted)
	}
	return nil
}

func cmdFaultSim(args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	n := fs.Int("patterns", 1024, "random patterns to grade")
	seed := fs.Int64("seed", 1, "random seed")
	scan := fs.Bool("scan", false, "assume full scan view")
	engine := fs.String("engine", "auto", "backend: auto, parallel, cpt or serial")
	workers := fs.Int("workers", 0, "fault-sharding workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("faultsim needs one .bench file")
	}
	backend, err := fault.ParseBackend(*engine)
	if err != nil {
		return err
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return err
		}
	}
	view := d.View()
	rng := rand.New(rand.NewSource(*seed))
	pats := make([][]bool, *n)
	for i := range pats {
		p := make([]bool, len(view.Inputs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	res, err := fault.Simulate(ctx, d.Circuit, d.Faults(), pats, fault.Options{
		Backend: backend,
		Workers: *workers,
		View:    fault.View{Inputs: view.Inputs, Outputs: view.Outputs},
	})
	if err != nil {
		return fmt.Errorf("faultsim on %s gave up after -timeout %v: %w", fs.Arg(0), *timeout, err)
	}
	// A pattern is kept when it was the first detector of some fault —
	// the same set reverse-order compaction would retain.
	kept := make(map[int]bool)
	for _, pi := range res.DetectedBy {
		if pi >= 0 {
			kept[pi] = true
		}
	}
	if *jsonOut {
		rep := telemetry.NewReport("dftc", "faultsim", fs.Arg(0))
		rep.Config = map[string]any{
			"patterns": *n, "seed": *seed, "scan": *scan,
			"engine": backend.String(), "workers": *workers,
		}
		rep.Results = map[string]any{
			"coverage":      res.Coverage(),
			"kept_patterns": len(kept),
			"targets":       len(res.Faults),
		}
		p := sim.CompiledFor(d.Circuit)
		rep.Results["folded_gates"] = p.Folded()
		rep.Results["hashed_gates"] = p.Hashed()
		return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
	}
	fmt.Printf("applied %d random patterns: coverage %.2f%% with %d kept patterns\n",
		*n, res.Coverage()*100, len(kept))
	return nil
}

func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	style := fs.String("style", "lssd", "lssd or mux")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("scan needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	st := core.StyleLSSD
	if *style == "mux" {
		st = core.StyleMuxScan
	} else if *style != "lssd" {
		return fmt.Errorf("unknown style %q", *style)
	}
	if err := d.ApplyScan(st); err != nil {
		return err
	}
	sc := d.Scan()
	fmt.Fprintf(os.Stderr, "chain length %d, overhead %.1f%%\n",
		sc.ChainLength(), 100*lssd.Overhead(d.Circuit, sc.Scanned))
	return logic.WriteBench(os.Stdout, sc.Scanned)
}

func cmdBILBO(args []string) error {
	fs := flag.NewFlagSet("bilbo", flag.ContinueOnError)
	patterns := fs.Int("patterns", 255, "PN patterns per session")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("bilbo needs two .bench files")
	}
	d1, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	d2, err := loadDesign(fs.Arg(1))
	if err != nil {
		return err
	}
	cs, err := core.SelfTestPlan(d1.Circuit, d2.Circuit, *patterns)
	if err != nil {
		return err
	}
	fmt.Printf("BILBO self-test, %d patterns: %d/%d faults (%.2f%%)\n",
		cs.Patterns, cs.Detected, cs.Total, cs.Coverage()*100)
	scanBits, bilboBits := bilbo.DataVolume(len(d1.Circuit.PIs), *patterns)
	fmt.Printf("test data volume: %d bits via scan vs %d bits via BILBO\n", scanBits, bilboBits)
	return nil
}

func cmdSyndrome(args []string) error {
	fs := flag.NewFlagSet("syndrome", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("syndrome needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	counts, syn := syndrome.Syndromes(d.Circuit)
	for j := range counts {
		fmt.Printf("output %-16s K=%-8d S=%.4f\n", d.Circuit.NameOf(d.Circuit.POs[j]), counts[j], syn[j])
	}
	cl := fault.CollapseEquiv(d.Circuit, fault.Universe(d.Circuit))
	un := syndrome.Untestable(syndrome.Classify(d.Circuit, cl.Reps))
	fmt.Printf("syndrome-untestable fault classes: %d of %d\n", len(un), len(cl.Reps))
	return nil
}

func cmdWalsh(args []string) error {
	fs := flag.NewFlagSet("walsh", flag.ContinueOnError)
	out := fs.Int("out", 0, "output index")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("walsh needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	if *out < 0 || *out >= len(d.Circuit.POs) {
		return fmt.Errorf("output %d out of range", *out)
	}
	fmt.Printf("C_0   = %d\n", walsh.C0(d.Circuit, *out, nil))
	fmt.Printf("C_all = %d\n", walsh.CAll(d.Circuit, *out, nil))
	checked, detected, goodCAll := walsh.InputFaultTheorem(d.Circuit, *out)
	fmt.Printf("input stuck-at faults detected via C_all: %d/%d (C_all=%d)\n", detected, checked, goodCAll)
	return nil
}

func cmdLFSR(args []string) error {
	fs := flag.NewFlagSet("lfsr", flag.ContinueOnError)
	width := fs.Int("width", 3, "register width")
	clocks := fs.Int("clocks", 10, "clocks to print")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	l := lfsr.NewMaximal(*width)
	l.SetState(1)
	taps, _ := lfsr.MaximalTaps(*width)
	fmt.Printf("width %d, taps %v, period %d\n", *width, taps, (1<<uint(*width))-1)
	for i := 0; i < *clocks; i++ {
		l.Clock()
		fmt.Printf("%0*b\n", *width, l.State())
	}
	return nil
}

func cmdBench(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("bench needs a generator name")
	}
	gen, rest := args[0], args[1:]
	n := 0
	if len(rest) > 0 {
		if v, err := strconv.Atoi(rest[0]); err == nil {
			n = v
		}
	}
	c, err := circuits.Builtin(gen, n)
	if err != nil {
		return err
	}
	return logic.WriteBench(os.Stdout, c)
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var todo []experiments.Experiment
	switch fs.NArg() {
	case 0:
		todo = experiments.All()
	case 1:
		e, ok := experiments.ByID(fs.Arg(0))
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: dftc experiments)", fs.Arg(0))
		}
		todo = []experiments.Experiment{e}
	default:
		return fmt.Errorf("experiments takes at most one id")
	}
	if *jsonOut {
		rep := telemetry.NewReport("dftc", "experiments", "")
		var outs []map[string]any
		for _, e := range todo {
			outs = append(outs, map[string]any{
				"id":       e.ID,
				"title":    e.Title,
				"rendered": e.Run().Render(),
			})
		}
		rep.Results = map[string]any{"experiments": outs}
		return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
	}
	for _, e := range todo {
		fmt.Println(e.Run().Render())
	}
	return nil
}
