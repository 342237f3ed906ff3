// Package core is the toolkit facade: it wires the substrates into the
// flow a user actually runs — load or build a circuit, analyze its
// testability, choose a DFT discipline (none, full scan in LSSD or
// mux-scan style, BILBO self-test), generate tests, fault-grade them,
// and report coverage, overhead and test-time economics.
package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"dft/internal/atpg"
	"dft/internal/bilbo"
	"dft/internal/compact"
	"dft/internal/cost"
	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/lssd"
	"dft/internal/telemetry"
	"dft/internal/testability"
)

// Style selects the DFT discipline applied to a design.
type Style int

const (
	StyleNone    Style = iota // test through package pins only
	StyleLSSD                 // full scan, SRL double-latch discipline
	StyleMuxScan              // full scan, raceless mux-scan flip-flops
)

// String names the style.
func (s Style) String() string {
	switch s {
	case StyleNone:
		return "none"
	case StyleLSSD:
		return "lssd"
	case StyleMuxScan:
		return "mux-scan"
	}
	return fmt.Sprintf("Style(%d)", int(s))
}

// Design is a circuit moving through the DFT flow.
type Design struct {
	Circuit *logic.Circuit
	Style   Style

	scan *lssd.Design // non-nil once a scan style is applied
}

// Load parses a .bench document into a Design. The netlist is vetted
// by fuzzdiff.Lint on the way in: structural errors (fanin-width
// violations the parser alone accepts, out-of-range nets) reject the
// file, while warnings such as dangling nets are tolerated — callers
// wanting them use Diagnostics.
func Load(name string, r io.Reader) (*Design, error) {
	c, err := logic.ParseBench(name, r)
	if err != nil {
		return nil, err
	}
	if errs := fuzzdiff.Errors(fuzzdiff.Lint(c)); len(errs) != 0 {
		return nil, fmt.Errorf("core: %s: invalid netlist: %s", name, errs[0])
	}
	return &Design{Circuit: c}, nil
}

// Diagnostics re-lints the design's current circuit, returning every
// structural finding (the Load path has already rejected errors for
// parsed files, so these are typically warnings).
func (d *Design) Diagnostics() []fuzzdiff.Diagnostic {
	return fuzzdiff.Lint(d.Circuit)
}

// LoadString is Load over a string.
func LoadString(name, src string) (*Design, error) {
	return Load(name, strings.NewReader(src))
}

// FromCircuit wraps an existing finalized circuit.
func FromCircuit(c *logic.Circuit) *Design {
	return &Design{Circuit: c}
}

// Analyze runs SCOAP and returns the summary plus the k hardest nets.
func (d *Design) Analyze(k int) (testability.Summary, []testability.NetReport) {
	m := testability.Analyze(d.Circuit)
	return m.Summarize(), m.Hardest(d.Circuit, k)
}

// ApplyScan converts the design to the given scan style. The original
// circuit is retained; test generation switches to the full-scan view.
func (d *Design) ApplyScan(style Style) error {
	switch style {
	case StyleLSSD:
		d.scan = lssd.NewDesign(d.Circuit, lssd.StyleLSSD)
	case StyleMuxScan:
		d.scan = lssd.NewDesign(d.Circuit, lssd.StyleMuxScan)
	case StyleNone:
		d.scan = nil
	default:
		return fmt.Errorf("core: unsupported style %v", style)
	}
	d.Style = style
	return nil
}

// Scan exposes the scan design (nil when StyleNone).
func (d *Design) Scan() *lssd.Design { return d.scan }

// View returns the test-generation view implied by the style.
func (d *Design) View() atpg.View {
	if d.Style == StyleNone {
		return atpg.PrimaryView(d.Circuit)
	}
	return atpg.FullScanView(d.Circuit)
}

// Faults returns the collapsed fault list for the design.
func (d *Design) Faults() []fault.Fault {
	cl := fault.CollapseEquiv(d.Circuit, fault.Universe(d.Circuit))
	return cl.Reps
}

// TestSet is the outcome of test generation.
type TestSet struct {
	Patterns   [][]bool
	Coverage   float64 // of testable faults
	RawCover   float64 // of all targeted faults
	Untestable int
	Aborted    int
	TargetN    int
	// Compaction holds the compaction pass's stats, nil when compaction
	// was off.
	Compaction *compact.Stats
}

// GenerateOptions tunes Generate.
type GenerateOptions struct {
	Engine        atpg.Engine
	RandomFirst   int
	MaxBacktracks int
	Seed          int64
	// CompactMode selects the compaction pipeline (off / reverse /
	// full) run on the generated set.
	CompactMode compact.Mode
	// Rand, when non-nil, is the injected random source; it takes
	// precedence over Seed.
	Rand *rand.Rand
	// Workers is the fault-simulation sharding degree, with the same
	// meaning as fault.Options.Workers: 0 selects GOMAXPROCS. Detection
	// outcomes are identical for every worker count.
	Workers int
	// Metrics receives the run's telemetry; nil selects
	// telemetry.Default().
	Metrics *telemetry.Registry
}

// Generate runs ATPG under the design's view.
func (d *Design) Generate(opt GenerateOptions) TestSet {
	ts, _ := d.GenerateContext(context.Background(), opt)
	return ts
}

// GenerateContext is Generate under a context deadline: the run stops
// between targets when ctx expires and returns the zero TestSet plus
// ctx's error. CLI -timeout and the dftd job runner share this path.
func (d *Design) GenerateContext(ctx context.Context, opt GenerateOptions) (TestSet, error) {
	ctx, span := telemetry.StartSpanCtx(ctx, telemetry.OrDefault(opt.Metrics), "core.generate")
	span.SetDetail(d.Circuit.Name)
	defer span.End()
	targets := d.Faults()
	res, err := atpg.GenerateContext(ctx, d.Circuit, d.View(), targets, atpg.Config{
		Engine:        opt.Engine,
		MaxBacktracks: opt.MaxBacktracks,
		RandomSeed:    opt.Seed,
		RandomFirst:   opt.RandomFirst,
		Rand:          opt.Rand,
		Workers:       opt.Workers,
		Metrics:       opt.Metrics,
	})
	if err != nil {
		return TestSet{}, err
	}
	ts := TestSet{
		Coverage:   res.Coverage,
		RawCover:   res.RawCover,
		Untestable: len(res.Untestable),
		Aborted:    len(res.Aborted),
		TargetN:    len(targets),
	}
	if opt.CompactMode.Enabled() {
		st, err := compact.Result(ctx, d.Circuit, d.View(), targets, res, compact.Options{
			Mode:    opt.CompactMode,
			Workers: opt.Workers,
			Rand:    opt.Rand,
			Seed:    opt.Seed,
			Metrics: opt.Metrics,
		})
		if err != nil {
			return TestSet{}, err
		}
		ts.Compaction = st
	}
	ts.Patterns = res.Patterns
	return ts, nil
}

// RandomTests generates random patterns with fault dropping and
// returns the resulting set and coverage. The source is private to the
// call, so a fixed seed reproduces exactly; see RandomTestsRand to
// inject one.
func (d *Design) RandomTests(budget int, seed int64) TestSet {
	return d.RandomTestsRand(budget, rand.New(rand.NewSource(seed)))
}

// RandomTestsRand is RandomTests with an injected random source.
func (d *Design) RandomTestsRand(budget int, rng *rand.Rand) TestSet {
	span := telemetry.Default().StartSpan("core.randomtests")
	span.SetDetail(d.Circuit.Name)
	defer span.End()
	targets := d.Faults()
	res := atpg.RandomGenerate(d.Circuit, d.View(), targets, 1.0, budget, rng)
	return TestSet{
		Patterns: res.Patterns,
		Coverage: res.Coverage,
		RawCover: res.Coverage,
		TargetN:  len(targets),
	}
}

// FaultGrade fault-simulates an arbitrary pattern set under the
// design's view.
func (d *Design) FaultGrade(patterns [][]bool) float64 {
	span := telemetry.Default().StartSpan("core.faultgrade")
	span.SetDetail(d.Circuit.Name)
	defer span.End()
	view := d.View()
	targets := d.Faults()
	res, _ := fault.Simulate(context.Background(), d.Circuit, targets, patterns, fault.Options{
		View: fault.View{Inputs: view.Inputs, Outputs: view.Outputs},
	})
	return res.Coverage()
}

// Report summarizes the whole flow for a generated test set.
type Report struct {
	Name         string
	Style        Style
	Gates        int
	DFFs         int
	FaultTargets int
	Patterns     int
	Coverage     float64
	OverheadPct  float64 // scan hardware overhead (0 when none)
	TesterCycles int     // scan serialization cost (0 when none)
	DefectPer1e6 float64 // shipped defect level at 90% yield, parts per million
}

// BuildReport assembles the economics of a test set.
func (d *Design) BuildReport(ts TestSet) Report {
	r := Report{
		Name:         d.Circuit.Name,
		Style:        d.Style,
		Gates:        d.Circuit.NumGates(),
		DFFs:         d.Circuit.NumDFFs(),
		FaultTargets: ts.TargetN,
		Patterns:     len(ts.Patterns),
		Coverage:     ts.RawCover,
		DefectPer1e6: cost.DefectLevel(0.90, ts.RawCover) * 1e6,
	}
	if d.scan != nil {
		r.OverheadPct = lssd.Overhead(d.Circuit, d.scan.Scanned) * 100
		r.TesterCycles = d.scan.TestCycles(len(ts.Patterns))
	}
	return r
}

// String renders the report as a fixed-width block.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design    : %s (style %s)\n", r.Name, r.Style)
	fmt.Fprintf(&b, "structure : %d gates, %d flip-flops\n", r.Gates, r.DFFs)
	fmt.Fprintf(&b, "faults    : %d collapsed targets\n", r.FaultTargets)
	fmt.Fprintf(&b, "tests     : %d patterns, coverage %.2f%%\n", r.Patterns, r.Coverage*100)
	if r.TesterCycles > 0 {
		fmt.Fprintf(&b, "scan      : %.1f%% gate overhead, %d tester cycles\n", r.OverheadPct, r.TesterCycles)
	}
	fmt.Fprintf(&b, "quality   : %.0f defective ppm shipped at 90%% yield\n", r.DefectPer1e6)
	return b.String()
}

// SelfTestPlan wires two combinational circuits into a BILBO self-test
// and reports its coverage — the built-in alternative to scan+ATPG.
func SelfTestPlan(c1, c2 *logic.Circuit, patterns int) (bilbo.CoverageSummary, error) {
	w1 := len(c1.PIs)
	if n := len(c2.POs); n > w1 {
		w1 = n
	}
	w2 := len(c1.POs)
	if n := len(c2.PIs); n > w2 {
		w2 = n
	}
	if w1 > 64 || w2 > 64 {
		return bilbo.CoverageSummary{}, fmt.Errorf("core: networks too wide for BILBO registers")
	}
	if w1 < 2 {
		w1 = 2
	}
	if w2 < 2 {
		w2 = 2
	}
	st := bilbo.NewSelfTest(c1, c2, w1, w2, patterns)
	cl := fault.CollapseEquiv(c1, fault.Universe(c1))
	return st.MeasureCoverage(cl.Reps), nil
}
