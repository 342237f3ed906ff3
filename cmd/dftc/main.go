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
//	dftc atpg      <file.bench> [-engine podem|dalg] [-scan] [-random N] [-compact off|reverse|full] [-workers N] [-timeout D] [-json]
//	dftc compact   <file.bench> [-mode reverse|full] [-in cubes.txt | -random N] [-seed S] [-scan] [-workers N] [-timeout D] [-json] [-out file]
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
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"dft/internal/bilbo"
	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/experiments"
	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/pipeline"
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
                                      (-compact off|reverse|full shrinks
                                      the set before reporting)
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
	var spec pipeline.ATPG
	fs.StringVar(&spec.Engine, "engine", pipeline.DefaultEngine, "podem or dalg")
	fs.BoolVar(&spec.Scan, "scan", false, "assume full scan (LSSD view)")
	fs.IntVar(&spec.Random, "random", 0, "random-first pattern budget")
	fs.StringVar(&spec.CompactMode, "compact", pipeline.DefaultCompact, "compaction mode: off, reverse or full")
	fs.Int64Var(&spec.Seed, "seed", pipeline.DefaultSeed, "random seed")
	fs.IntVar(&spec.Workers, "workers", 0, "fault-sharding workers (0 = all CPUs)")
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
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	out, rep, err := spec.Run(ctx, d.Circuit, telemetry.Default())
	if err != nil {
		return gaveUp("atpg", fs.Arg(0), *timeout, err)
	}
	if *jsonOut {
		return writeReport(rep, fs.Arg(0))
	}
	ts := out.Tests
	fmt.Print(out.Design.BuildReport(ts))
	if ts.Compaction != nil {
		fmt.Println(compactSummary(ts.Compaction))
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
	var spec pipeline.FaultSim
	fs.IntVar(&spec.Patterns, "patterns", pipeline.DefaultFaultSimPatterns, "random patterns to grade")
	fs.Int64Var(&spec.Seed, "seed", pipeline.DefaultSeed, "random seed")
	fs.BoolVar(&spec.Scan, "scan", false, "assume full scan view")
	fs.StringVar(&spec.Backend, "engine", pipeline.DefaultBackend, "backend: auto, parallel, cpt or serial")
	fs.IntVar(&spec.Workers, "workers", 0, "fault-sharding workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("faultsim needs one .bench file")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()
	out, rep, err := spec.Run(ctx, d.Circuit, telemetry.Default())
	if err != nil {
		return gaveUp("faultsim", fs.Arg(0), *timeout, err)
	}
	if *jsonOut {
		return writeReport(rep, fs.Arg(0))
	}
	fmt.Printf("applied %d random patterns: coverage %.2f%% with %d kept patterns\n",
		out.Patterns, out.Coverage*100, out.Kept)
	return nil
}

// writeReport names the CLI and the input on a pipeline report and
// writes it with the process-wide registry, the one -stats dumps.
func writeReport(rep *telemetry.Report, input string) error {
	rep.Tool, rep.Input = "dftc", input
	return rep.Finish(telemetry.Default()).WriteJSON(os.Stdout)
}

// gaveUp names the -timeout flag in an error its deadline caused.
func gaveUp(cmd, input string, timeout time.Duration, err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%s on %s gave up after -timeout %v: %w", cmd, input, timeout, err)
	}
	return err
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
