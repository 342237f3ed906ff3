package fault

import (
	"slices"

	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// EvalFaulty computes all net values of the faulty machine for one
// pattern: a full levelized pass with the fault injected at its site.
// pi and state follow the same conventions as sim.Eval.
func EvalFaulty(c *logic.Circuit, pi, state []bool, f Fault) []bool {
	vals := make([]bool, len(c.Gates))
	evalFaultyInto(c, pi, state, f, vals, make([]bool, c.MaxFanin()))
	return vals
}

// EvalFaultyInto is EvalFaulty into caller-provided storage, for
// session loops that drive a faulty network once per clock. scratch
// must have capacity for the widest gate fanin.
func EvalFaultyInto(c *logic.Circuit, pi, state []bool, f Fault, vals, scratch []bool) {
	evalFaultyInto(c, pi, state, f, vals, scratch)
}

func evalFaultyInto(c *logic.Circuit, pi, state []bool, f Fault, vals, scratch []bool) {
	for i, id := range c.PIs {
		vals[id] = pi[i]
	}
	for i, id := range c.DFFs {
		vals[id] = state[i]
	}
	if f.Pin == Stem && !c.Gates[f.Gate].Type.IsCombinational() {
		vals[f.Gate] = f.SA == logic.One
	}
	evalOrder(c, f, vals, scratch)
}

// goodMachine is the fault evalOrder injects nowhere: no gate has a
// negative index.
var goodMachine = Fault{Gate: -1, Pin: Stem}

// evalOrder is the one interpreted faulty-machine pass: it evaluates
// c.Order over vals, whose source elements the caller has loaded, with
// f injected on the way — a branch fault replaces its pin's operand and
// a stem fault pins its gate's output. Faults on source elements are
// the caller's to pin, since the conventions differ: a sequential
// machine keeps a D-pin fault for the clock edge, while the engine's
// view pins the flip-flop output.
func evalOrder(c *logic.Circuit, f Fault, vals, scratch []bool) {
	stuck := f.SA == logic.One
	for _, id := range c.Order {
		g := &c.Gates[id]
		in := scratch[:len(g.Fanin)]
		for i, src := range g.Fanin {
			in[i] = vals[src]
		}
		if f.Pin != Stem && f.Gate == id {
			in[f.Pin] = stuck
		}
		v := g.Type.EvalBool(in)
		if f.Pin == Stem && f.Gate == id {
			v = stuck
		}
		vals[id] = v
	}
}

// DetectsCombinational reports whether the pattern detects the fault on
// a combinational circuit (or the combinational core of a scan design):
// some primary output differs between good and faulty machine.
func DetectsCombinational(c *logic.Circuit, pi []bool, f Fault) bool {
	state := make([]bool, len(c.DFFs))
	return detectsWithState(c, pi, state, f)
}

// cSerialEvals counts full-circuit machine passes, the paper's serial
// simulation unit of work ("3001 good machine simulations"), for the
// callers that take no registry. The engine's serial backend counts the
// same name on its own run's registry.
var cSerialEvals = telemetry.Default().Counter("fault.serial.evals")

func detectsWithState(c *logic.Circuit, pi, state []bool, f Fault) bool {
	// One good-machine pass plus one faulty-machine pass.
	cSerialEvals.Add(2)
	good := make([]bool, len(c.Gates))
	bad := make([]bool, len(c.Gates))
	scratch := make([]bool, c.MaxFanin())
	sim.EvalInto(c, pi, state, good)
	evalFaultyInto(c, pi, state, f, bad, scratch)
	for _, po := range c.POs {
		if good[po] != bad[po] {
			return true
		}
	}
	return false
}

// SequentialResult reports sequential fault simulation outcomes.
type SequentialResult struct {
	Faults    []Fault
	Detected  []bool
	DetectCyc []int // cycle of first detection, -1 if undetected
	NumCycles int
	NumFaults int
	NumCaught int
}

// Coverage returns detected/total.
func (r *SequentialResult) Coverage() float64 {
	if r.NumFaults == 0 {
		return 0
	}
	return float64(r.NumCaught) / float64(r.NumFaults)
}

// SimulateSequence performs serial fault simulation of a sequential
// circuit over an input sequence: for every fault, a faulty Machine is
// stepped cycle-by-cycle against the good machine's output trajectory
// (both starting from the all-zero state), and the fault is detected
// on the first cycle where a primary output differs. This is the
// paper's "3001 good machine simulations" model of fault simulation
// cost, run serially.
func SimulateSequence(c *logic.Circuit, faults []Fault, seq [][]bool) *SequentialResult {
	defer telemetry.Default().Timer("fault.sim.serial").Time()()
	machineEvals := int64(len(seq)) // the shared good-machine trajectory
	defer func() { cSerialEvals.Add(machineEvals) }()
	res := &SequentialResult{
		Faults:    faults,
		Detected:  make([]bool, len(faults)),
		DetectCyc: make([]int, len(faults)),
		NumCycles: len(seq),
		NumFaults: len(faults),
	}
	goodOuts := sim.NewMachine(c).Run(seq)
	for fi, f := range faults {
		res.DetectCyc[fi] = -1
		m := NewMachine(c, f)
		for t, pat := range seq {
			machineEvals++
			if !slices.Equal(m.Step(pat), goodOuts[t]) {
				res.Detected[fi] = true
				res.DetectCyc[fi] = t
				res.NumCaught++
				break
			}
		}
	}
	return res
}
