// Package board models the board-level, ad hoc DFT techniques of the
// paper's §III: module/wire boards, degating for partitioning (Figs.
// 2–3), oscillator degating, test points (Fig. 4), bed-of-nails and
// in-circuit testing (Fig. 5), and bus-structured architectures with
// tri-state isolation (Fig. 6).
package board

import (
	"fmt"
	"math/rand"
	"slices"

	"dft/internal/fault"
	"dft/internal/logic"
)

// Module is a replaceable unit on the board wrapping a combinational
// circuit; a fault may be injected to model a defective part.
type Module struct {
	Name  string
	Logic *logic.Circuit
	Fault *fault.Fault
}

// Eval computes the module's outputs, with its fault if it has one.
func (m *Module) Eval(in []bool) []bool {
	return fault.NewMachine(m.Logic, m.Fault).Apply(in)
}

// Port addresses one pin of a module.
type Port struct {
	Module string
	Pin    int
}

// Wire connects a source port (module output or board input) to sink
// ports (module inputs or board outputs).
type Wire struct {
	Name string
	From Port // Module == "" means board primary input From.Pin
	To   []Port
}

// Board is a set of modules and wires with board-level inputs/outputs.
type Board struct {
	Modules []*Module
	Wires   []Wire
	Inputs  int
	Outputs []Port // board outputs read module output ports
}

// module looks up a module by name.
func (b *Board) module(name string) (*Module, error) {
	for _, m := range b.Modules {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("board: unknown module %q", name)
}

// Eval evaluates the whole board from its primary inputs, returning
// board outputs and every wire value (for nail access).
func (b *Board) Eval(in []bool) (outs []bool, wires map[string]bool, err error) {
	if len(in) != b.Inputs {
		return nil, nil, fmt.Errorf("board: %d inputs for %d pins", len(in), b.Inputs)
	}
	wires = map[string]bool{}
	modOut := map[string][]bool{}
	// Iterate to fixed point over a topological-ish pass (boards here
	// are acyclic; a bounded loop suffices and detects cycles).
	for pass := 0; pass <= len(b.Modules); pass++ {
		progress := false
		for _, m := range b.Modules {
			if _, done := modOut[m.Name]; done {
				continue
			}
			ins, ready := b.moduleInputs(m, in, modOut)
			if !ready {
				continue
			}
			modOut[m.Name] = m.Eval(ins)
			progress = true
		}
		if !progress {
			break
		}
	}
	for _, m := range b.Modules {
		if _, done := modOut[m.Name]; !done {
			return nil, nil, fmt.Errorf("board: module %q never ready (loop or missing wire)", m.Name)
		}
	}
	for _, w := range b.Wires {
		v, ok := b.wireValue(w, in, modOut)
		if !ok {
			return nil, nil, fmt.Errorf("board: wire %q undriven", w.Name)
		}
		wires[w.Name] = v
	}
	outs = make([]bool, len(b.Outputs))
	for i, p := range b.Outputs {
		m, err := b.module(p.Module)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = modOut[m.Name][p.Pin]
	}
	return outs, wires, nil
}

// moduleInputs gathers a module's input values from the wires.
func (b *Board) moduleInputs(m *Module, in []bool, modOut map[string][]bool) ([]bool, bool) {
	ins := make([]bool, len(m.Logic.PIs))
	have := make([]bool, len(ins))
	for _, w := range b.Wires {
		v, ok := b.wireValue(w, in, modOut)
		for _, to := range w.To {
			if to.Module != m.Name {
				continue
			}
			if !ok {
				return nil, false
			}
			ins[to.Pin] = v
			have[to.Pin] = true
		}
	}
	for _, h := range have {
		if !h {
			return nil, false
		}
	}
	return ins, true
}

func (b *Board) wireValue(w Wire, in []bool, modOut map[string][]bool) (bool, bool) {
	if w.From.Module == "" {
		return in[w.From.Pin], true
	}
	out, ok := modOut[w.From.Module]
	if !ok {
		return false, false
	}
	return out[w.From.Pin], true
}

// EdgeTest applies patterns at the board edge and compares against a
// golden board; it reports pass/fail only — the resolution of an
// edge-connector test is the whole board.
func EdgeTest(golden, uut *Board, patterns [][]bool) (bool, error) {
	for _, p := range patterns {
		g, _, err := golden.Eval(p)
		if err != nil {
			return false, err
		}
		u, _, err := uut.Eval(p)
		if err != nil {
			return false, err
		}
		for i := range g {
			if g[i] != u[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// BedOfNails gives direct access to every wire: observation via probe
// nails and module isolation via overdrive — "testing each chip on the
// board independently of the other chips".
type BedOfNails struct {
	B *Board
}

// ProbeAll returns every wire value for a pattern.
func (bn *BedOfNails) ProbeAll(p []bool) (map[string]bool, error) {
	_, wires, err := bn.B.Eval(p)
	return wires, err
}

// InCircuitTest overdrives one module's inputs with the given patterns
// and compares its outputs against its own specification (the golden
// circuit), isolating the failing chip regardless of surrounding
// logic. It returns the failing module names.
func (bn *BedOfNails) InCircuitTest(patterns map[string][][]bool) ([]string, error) {
	var failing []string
	for _, m := range bn.B.Modules {
		pats := patterns[m.Name]
		bad := false
		// One good and one faulty machine serve the module's whole
		// pattern set.
		uut := fault.NewMachine(m.Logic, m.Fault)
		golden := fault.NewMachine(m.Logic, nil)
		for _, p := range pats {
			if !slices.Equal(uut.Apply(p), golden.Apply(p)) {
				bad = true
			}
		}
		if bad {
			failing = append(failing, m.Name)
		}
	}
	return failing, nil
}

// --- Degating (Figs. 2–3) ---

// DegatedNet is the Fig. 2 structure: the module-driven value is ANDed
// with NOT(DEGATE) and ORed with a control line, so the tester can
// take over the net.
type DegatedNet struct {
	Degate  bool
	Control bool
}

// Value resolves the net given the functional driver value.
func (d DegatedNet) Value(driver bool) bool {
	return (driver && !d.Degate) || d.Control
}

// Oscillator is the free-running clock of Fig. 3: phase is unknown to
// the tester unless degated.
type Oscillator struct {
	rng    *rand.Rand
	Degate bool
	Pseudo bool // tester-driven pseudo-clock level when degated
}

// NewOscillator seeds the unknown phase.
func NewOscillator(seed int64) *Oscillator {
	return &Oscillator{rng: rand.New(rand.NewSource(seed))}
}

// Tick returns the next clock level: random phase when free-running,
// the tester's pseudo-clock when degated.
func (o *Oscillator) Tick() bool {
	if o.Degate {
		return o.Pseudo
	}
	return o.rng.Intn(2) == 1
}

// SyncSession runs a clocked machine for n cycles sampling on
// oscillator ticks, returning the output trace. Without degating the
// trace depends on the oscillator's hidden phase; with degating it is
// repeatable.
func SyncSession(c *logic.Circuit, o *Oscillator, inputs [][]bool) [][]bool {
	m := fault.NewMachine(c, nil)
	var trace [][]bool
	for _, in := range inputs {
		out := m.Apply(in)
		if o.Tick() {
			m.Clock()
		}
		trace = append(trace, out)
	}
	return trace
}

// --- Bus architecture (Fig. 6) ---

// BusDriver is a tri-state driver on a shared bus.
type BusDriver struct {
	Name   string
	Enable bool
	Drive  func() bool
}

// Bus is a shared wire with multiple tri-state drivers, as in the
// Fig. 6 microcomputer: exactly one driver should be enabled at a
// time; the Stuck field models a solder defect pinning the trace.
type Bus struct {
	Drivers []*BusDriver
	Stuck   *bool // nil = healthy
}

// ErrContention is reported when several drivers are enabled.
var ErrContention = fmt.Errorf("board: bus contention")

// ErrFloating is reported when no driver is enabled.
var ErrFloating = fmt.Errorf("board: bus floating")

// Read resolves the bus value.
func (b *Bus) Read() (bool, error) {
	if b.Stuck != nil {
		return *b.Stuck, nil
	}
	var val bool
	n := 0
	for _, d := range b.Drivers {
		if d.Enable {
			val = d.Drive()
			n++
		}
	}
	switch n {
	case 0:
		return false, ErrFloating
	case 1:
		return val, nil
	default:
		return false, ErrContention
	}
}

// IsolateAndTest enables each driver alone and compares the bus value
// with the driver's expected output, returning modules that fail. On a
// stuck bus every module fails for one polarity — the paper's
// ambiguity: "any module or the bus trace itself may be the culprit".
func (b *Bus) IsolateAndTest(expected map[string]bool) (failing []string, err error) {
	for _, d := range b.Drivers {
		for _, e := range b.Drivers {
			e.Enable = e == d
		}
		v, err := b.Read()
		if err != nil {
			return nil, err
		}
		if v != expected[d.Name] {
			failing = append(failing, d.Name)
		}
	}
	return failing, nil
}

// DiagnoseBus interprets an isolation run: distinct single failures
// point at modules; all-fail points at the bus trace (requiring the
// current measurements the paper mentions to resolve further).
func DiagnoseBus(failing []string, total int) string {
	switch {
	case len(failing) == 0:
		return "pass"
	case len(failing) == total:
		return "bus trace suspected (all drivers fail; voltage test cannot resolve)"
	default:
		return fmt.Sprintf("module(s) %v suspected", failing)
	}
}
