// Package signature implements the Signature Analysis methodology of
// Figs. 7–8 ([27],[33],[55]): an external analyzer probes one net of a
// self-stimulating board while a fixed, repeatable stimulus session
// runs; the probed stream is compressed in an LFSR and the residue
// compared with the good-machine signature. The package adds the
// board-level discipline the paper requires — kernel-first probing,
// closed-loop detection and breaking — and a fault-isolation walk that
// locates the failing module.
package signature

import (
	"fmt"
	"sort"

	"dft/internal/fault"
	"dft/internal/lfsr"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// Analyzer is the external signature-analysis tool: a probe feeding a
// k-bit LFSR synchronized with the board clock.
type Analyzer struct {
	Width int
}

// NewAnalyzer builds an analyzer with a k-bit register (the classic
// tool used 16).
func NewAnalyzer(width int) *Analyzer { return &Analyzer{Width: width} }

// Probe runs the stimulus session from reset with the probe on net,
// returning the signature. The session must be identical for every
// probing, which is why the board needs initialization and a fixed
// clock count.
func (a *Analyzer) Probe(m *fault.Machine, stimulus [][]bool, net int) uint64 {
	reg := telemetry.Default()
	defer reg.Timer("signature.probe").Time()()
	reg.Counter("signature.probes").Inc()
	reg.Counter("signature.probe.cycles").Add(int64(len(stimulus)))
	l := lfsr.NewMaximal(a.Width)
	l.SetState(0)
	for _, pat := range stimulus {
		m.Apply(pat)
		if m.Peek(net) {
			l.ClockIn(1)
		} else {
			l.ClockIn(0)
		}
		m.Clock()
	}
	return l.State()
}

// Board couples a circuit with its self-stimulation session and a
// module-level structure for diagnosis.
type Board struct {
	C        *logic.Circuit
	Stimulus [][]bool
	Modules  []Module
}

// Module is a board-level replaceable unit: a named set of output nets
// plus the modules feeding it.
type Module struct {
	Name    string
	Outputs []int
	Feeds   []string // upstream module names
}

// SelfStimulus builds a deterministic kernel stimulus of n cycles for
// the board's primary inputs, modeling the "network which can
// stimulate itself": a maximal LFSR supplies the input stream, so the
// session is repeatable from reset.
func SelfStimulus(c *logic.Circuit, cycles int) [][]bool {
	width := len(c.PIs)
	if width == 0 {
		return make([][]bool, cycles)
	}
	lw := width
	if lw < 2 {
		lw = 2
	}
	if lw > 32 {
		lw = 32
	}
	l := lfsr.NewMaximal(lw)
	l.SetState(1)
	out := make([][]bool, cycles)
	for t := range out {
		pat := make([]bool, width)
		for i := range pat {
			pat[i] = l.Bit(i%lw+1) == 1
		}
		l.Clock()
		out[t] = pat
	}
	return out
}

// GoldenSignatures probes every listed net on the good machine.
func (b *Board) GoldenSignatures(a *Analyzer, nets []int) map[int]uint64 {
	sigs := make(map[int]uint64, len(nets))
	for _, n := range nets {
		sigs[n] = a.Probe(fault.NewMachine(b.C, nil), b.Stimulus, n)
	}
	return sigs
}

// moduleByName resolves a module.
func (b *Board) moduleByName(name string) (*Module, error) {
	for i := range b.Modules {
		if b.Modules[i].Name == name {
			return &b.Modules[i], nil
		}
	}
	return nil, fmt.Errorf("signature: unknown module %q", name)
}

// DetectLoops finds closed module-level paths, which the paper
// requires to be broken before signature analysis can isolate faults:
// "if the bad output ... were allowed to cycle around ... it would not
// be clear which module was defective".
func (b *Board) DetectLoops() [][]string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var stack []string
	var loops [][]string
	var visit func(name string)
	visit = func(name string) {
		color[name] = gray
		stack = append(stack, name)
		m, err := b.moduleByName(name)
		if err == nil {
			for _, up := range m.Feeds {
				switch color[up] {
				case white:
					visit(up)
				case gray:
					// Extract the cycle from the stack.
					var cyc []string
					for i := len(stack) - 1; i >= 0; i-- {
						cyc = append(cyc, stack[i])
						if stack[i] == up {
							break
						}
					}
					loops = append(loops, cyc)
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[name] = black
	}
	names := make([]string, 0, len(b.Modules))
	for _, m := range b.Modules {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		if color[n] == white {
			visit(n)
		}
	}
	return loops
}

// BreakLoop removes the dependency of module on upstream (the jumper
// the paper says must be added at the board level).
func (b *Board) BreakLoop(module, upstream string) error {
	m, err := b.moduleByName(module)
	if err != nil {
		return err
	}
	for i, f := range m.Feeds {
		if f == upstream {
			m.Feeds = append(m.Feeds[:i], m.Feeds[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("signature: module %q does not read %q", module, upstream)
}

// Diagnosis reports the outcome of a kernel-first probing session.
type Diagnosis struct {
	Culprit  string
	Probes   int
	BadNets  []int
	GoodNets []int
}

// Diagnose runs the paper's procedure against a faulty board: starting
// from the kernel (modules with no upstream feeds) and working
// downstream, probe each module's outputs; the first module whose
// inputs' signatures are all good but whose output signature is bad is
// the culprit. The board's module graph must be loop-free.
func (b *Board) Diagnose(a *Analyzer, f fault.Fault) (Diagnosis, error) {
	reg := telemetry.Default()
	defer reg.Timer("signature.diagnose").Time()()
	reg.Counter("signature.diagnoses").Inc()
	if loops := b.DetectLoops(); len(loops) != 0 {
		return Diagnosis{}, fmt.Errorf("signature: closed loops present, break them first: %v", loops)
	}
	var nets []int
	for _, m := range b.Modules {
		nets = append(nets, m.Outputs...)
	}
	golden := b.GoldenSignatures(a, nets)

	// Topological order from the kernel outward.
	order, err := b.topoOrder()
	if err != nil {
		return Diagnosis{}, err
	}
	diag := Diagnosis{}
	moduleGood := map[string]bool{}
	for _, name := range order {
		m, _ := b.moduleByName(name)
		inputsGood := true
		for _, up := range m.Feeds {
			if !moduleGood[up] {
				inputsGood = false
			}
		}
		good := true
		for _, n := range m.Outputs {
			fm := fault.NewMachine(b.C, &f)
			sig := a.Probe(fm, b.Stimulus, n)
			diag.Probes++
			if sig != golden[n] {
				good = false
				diag.BadNets = append(diag.BadNets, n)
			} else {
				diag.GoodNets = append(diag.GoodNets, n)
			}
		}
		moduleGood[name] = good
		if inputsGood && !good {
			diag.Culprit = name
			return diag, nil
		}
	}
	return diag, nil
}

// topoOrder sorts modules kernel-first.
func (b *Board) topoOrder() ([]string, error) {
	indeg := map[string]int{}
	for _, m := range b.Modules {
		if _, ok := indeg[m.Name]; !ok {
			indeg[m.Name] = 0
		}
		indeg[m.Name] += len(m.Feeds)
	}
	var queue []string
	for _, m := range b.Modules {
		if indeg[m.Name] == 0 {
			queue = append(queue, m.Name)
		}
	}
	sort.Strings(queue)
	var order []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for i := range b.Modules {
			m := &b.Modules[i]
			for _, up := range m.Feeds {
				if up == n {
					indeg[m.Name]--
					if indeg[m.Name] == 0 {
						queue = append(queue, m.Name)
					}
				}
			}
		}
	}
	if len(order) != len(b.Modules) {
		return nil, fmt.Errorf("signature: module graph has cycles")
	}
	return order, nil
}

// DetectionExperiment measures the probability that a fault changes a
// probed signature: for each fault, probe the given net and compare
// with the golden signature. It returns the fraction of faults whose
// error streams were caught — with a 16-bit register this approaches
// 1 - 2^-16 of the faults that disturb the net at all.
func DetectionExperiment(b *Board, a *Analyzer, net int, faults []fault.Fault) (caught, disturbed int) {
	golden := a.Probe(fault.NewMachine(b.C, nil), b.Stimulus, net)
	for _, f := range faults {
		fm := fault.NewMachine(b.C, &f)
		// Does the fault disturb the probed stream at all?
		gm := fault.NewMachine(b.C, nil)
		streamDiffers := false
		for _, pat := range b.Stimulus {
			fm.Apply(pat)
			gm.Apply(pat)
			if fm.Peek(net) != gm.Peek(net) {
				streamDiffers = true
			}
			fm.Clock()
			gm.Clock()
		}
		if !streamDiffers {
			continue
		}
		disturbed++
		fm2 := fault.NewMachine(b.C, &f)
		if a.Probe(fm2, b.Stimulus, net) != golden {
			caught++
		}
	}
	return caught, disturbed
}
