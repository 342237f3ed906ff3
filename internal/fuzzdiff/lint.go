// Package fuzzdiff is the toolkit's differential-fuzzing and
// cross-oracle validation layer. The compiled kernel, the interpreted
// kernel, both execution widths (scalar, 64-way word) and
// every fault-simulation backend (serial, parallel and critical-path
// tracing, at any worker count) are
// required to produce byte-identical results — the
// good-machine/faulty-machine equivalence the paper's fault-simulation
// cost model rests on. This package makes that invariant standing
// infrastructure: a seeded random netlist generator (Generate), a
// structural validator shared by the generator and the CLI's dftc info
// (Lint), whose error findings the .bench parser already rejects, and a
// differential checker (Round, CheckKernels,
// CheckBackends) that sweeps the configuration matrix and reports the
// first divergence as a minimized, replayable repro.
package fuzzdiff

import (
	"fmt"

	"dft/internal/logic"
)

// Severity grades a Diagnostic. Errors make a circuit unfit for
// simulation (logic.ParseBench rejects every one of them); warnings
// flag structure that is legal but usually unintended.
type Severity uint8

const (
	// Warning marks suspicious but simulatable structure.
	Warning Severity = iota
	// Error marks structure the simulators cannot evaluate soundly.
	Error
)

// String names the severity for diagnostics output.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic codes emitted by Lint.
const (
	// CodeFaninRange: a gate reads a net ID outside [0, NumNets).
	CodeFaninRange = "fanin-range"
	// CodeWidthMismatch: a gate's fanin count violates its type's
	// MinFanin/MaxFanin contract (e.g. a 2-input NOT built through a
	// Circuit's exported fields).
	CodeWidthMismatch = "width-mismatch"
	// CodeCombLoop: a combinational cycle (no DFF on the path).
	CodeCombLoop = "comb-loop"
	// CodeDanglingNet: a net that is never read and not a primary
	// output — its logic is dead and no fault on it is observable.
	CodeDanglingNet = "dangling-net"
	// CodeOutputRange: a primary-output net ID out of range.
	CodeOutputRange = "output-range"
	// CodeNoOutputs: the circuit has no primary outputs at all.
	CodeNoOutputs = "no-outputs"
)

// Diagnostic is one structured finding from Lint. Net is the element
// the finding anchors to, or -1 for circuit-wide findings.
type Diagnostic struct {
	Code     string
	Severity Severity
	Net      int
	Msg      string
}

// String renders the diagnostic as "severity code: msg".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s %s: %s", d.Severity, d.Code, d.Msg)
}

// HasErrors reports whether any diagnostic is Error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors filters the Error-severity diagnostics.
func Errors(ds []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Lint validates a circuit's structure and returns every finding. It
// works on finalized and non-finalized circuits alike (it builds its
// own fanout map and runs its own cycle check), so the generator can
// vet a netlist before Finalize and dftc info can vet one after.
// A nil or empty result means the circuit is clean.
func Lint(c *logic.Circuit) []Diagnostic {
	var ds []Diagnostic
	n := len(c.Gates)
	name := func(id int) string {
		if id >= 0 && id < n {
			return fmt.Sprintf("%q (net %d)", c.Gates[id].Name, id)
		}
		return fmt.Sprintf("net %d", id)
	}

	// Per-gate checks: fanin range and fanin-width contract.
	read := make([]bool, n)
	ranged := true
	for id, g := range c.Gates {
		fan := len(g.Fanin)
		if min := g.Type.MinFanin(); fan < min {
			ds = append(ds, Diagnostic{CodeWidthMismatch, Error, id,
				fmt.Sprintf("%s gate %s has %d fanin, needs at least %d", g.Type, name(id), fan, min)})
		}
		if max := g.Type.MaxFanin(); max >= 0 && fan > max {
			ds = append(ds, Diagnostic{CodeWidthMismatch, Error, id,
				fmt.Sprintf("%s gate %s has %d fanin, accepts at most %d", g.Type, name(id), fan, max)})
		}
		for pin, f := range g.Fanin {
			if f < 0 || f >= n {
				ds = append(ds, Diagnostic{CodeFaninRange, Error, id,
					fmt.Sprintf("gate %s pin %d reads out-of-range net %d", name(id), pin, f)})
				ranged = false
				continue
			}
			read[f] = true
		}
	}

	// Output checks.
	for _, po := range c.POs {
		if po < 0 || po >= n {
			ds = append(ds, Diagnostic{CodeOutputRange, Error, po,
				fmt.Sprintf("primary output net %d out of range", po)})
		} else {
			read[po] = true
		}
	}
	if len(c.POs) == 0 && n > 0 {
		ds = append(ds, Diagnostic{CodeNoOutputs, Warning, -1, "circuit has no primary outputs"})
	}

	// Dangling nets: driven but never read anywhere and not observed.
	for id := range c.Gates {
		if !read[id] {
			ds = append(ds, Diagnostic{CodeDanglingNet, Warning, id,
				fmt.Sprintf("net %s is never read and is not a primary output", name(id))})
		}
	}

	// Combinational cycle check by Kahn's algorithm over combinational
	// edges, mirroring Finalize but reporting the stuck nets instead of
	// failing wholesale. Skipped when fanin IDs were out of range.
	if ranged {
		fanout := make([][]int, n)
		indeg := make([]int, n)
		for id, g := range c.Gates {
			if g.Type.IsCombinational() {
				indeg[id] = len(g.Fanin)
			}
			for _, f := range g.Fanin {
				fanout[f] = append(fanout[f], id)
			}
		}
		queue := make([]int, 0, n)
		for id := range c.Gates {
			if indeg[id] == 0 {
				queue = append(queue, id)
			}
		}
		seen := 0
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			seen++
			for _, s := range fanout[id] {
				if !c.Gates[s].Type.IsCombinational() {
					continue
				}
				indeg[s]--
				if indeg[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
		if seen != n {
			for id := range c.Gates {
				if indeg[id] > 0 {
					ds = append(ds, Diagnostic{CodeCombLoop, Error, id,
						fmt.Sprintf("net %s lies on a combinational cycle", name(id))})
				}
			}
		}
	}
	return ds
}
