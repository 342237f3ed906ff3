// Package fault implements the single stuck-at fault model of the
// paper: fault universe enumeration over gate pins, structural
// equivalence and dominance collapsing, and fault simulation — serial
// (scalar) and 64-way parallel-pattern single-fault propagation.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"dft/internal/logic"
)

// Fault is a single stuck-at fault on a gate pin. Gate is the element
// index in the circuit; Pin is an input-pin index, or Stem (-1) for the
// fault on the element's output net. SA must be logic.Zero or
// logic.One.
//
// For an Input element only the Stem fault exists. A DFF contributes a
// Stem fault (its output, i.e. present state) and a Pin-0 fault (its D
// input).
type Fault struct {
	Gate int
	Pin  int
	SA   logic.V
}

// Stem is the Pin value denoting an output (stem) fault.
const Stem = -1

// String renders the fault as "net/pin s-a-v" using net IDs.
func (f Fault) String() string {
	if f.Pin == Stem {
		return fmt.Sprintf("g%d s-a-%v", f.Gate, f.SA)
	}
	return fmt.Sprintf("g%d.in%d s-a-%v", f.Gate, f.Pin, f.SA)
}

// ParseFault parses the String rendering back into a Fault: "g12
// s-a-0" for a stem fault, "g12.in3 s-a-1" for an input-branch fault.
// It is the wire format used by the service's inject option and the
// dftc diagnose -inject flag. The gate index is not range-checked
// here — callers with a circuit in hand validate it against
// c.NumNets().
func ParseFault(s string) (Fault, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) != 2 {
		return Fault{}, fmt.Errorf("fault %q: want \"g<gate> s-a-<v>\" or \"g<gate>.in<pin> s-a-<v>\"", s)
	}
	var sa logic.V
	switch fields[1] {
	case "s-a-0":
		sa = logic.Zero
	case "s-a-1":
		sa = logic.One
	default:
		return Fault{}, fmt.Errorf("fault %q: bad stuck value %q (want s-a-0 or s-a-1)", s, fields[1])
	}
	site := fields[0]
	if !strings.HasPrefix(site, "g") {
		return Fault{}, fmt.Errorf("fault %q: site %q must start with g", s, site)
	}
	site = site[1:]
	pin := Stem
	if dot := strings.Index(site, ".in"); dot >= 0 {
		p, err := strconv.Atoi(site[dot+3:])
		if err != nil || p < 0 {
			return Fault{}, fmt.Errorf("fault %q: bad pin index %q", s, site[dot+3:])
		}
		pin = p
		site = site[:dot]
	}
	gate, err := strconv.Atoi(site)
	if err != nil || gate < 0 {
		return Fault{}, fmt.Errorf("fault %q: bad gate index %q", s, site)
	}
	return Fault{Gate: gate, Pin: pin, SA: sa}, nil
}

// Validate range-checks a parsed fault against the circuit: the gate
// must exist and a branch pin must name one of its fanin operands.
func (f Fault) Validate(c *logic.Circuit) error {
	if f.Gate < 0 || f.Gate >= c.NumNets() {
		return fmt.Errorf("fault %s: gate out of range (circuit has %d nets)", f, c.NumNets())
	}
	if f.Pin != Stem && (f.Pin < 0 || f.Pin >= len(c.Gates[f.Gate].Fanin)) {
		return fmt.Errorf("fault %s: pin out of range (gate has %d inputs)", f, len(c.Gates[f.Gate].Fanin))
	}
	return nil
}

// Name renders the fault with circuit net names, e.g. "G16 s-a-1" or
// "G22.in0(G10) s-a-0".
func (f Fault) Name(c *logic.Circuit) string {
	if f.Pin == Stem {
		return fmt.Sprintf("%s s-a-%v", c.NameOf(f.Gate), f.SA)
	}
	src := c.Gates[f.Gate].Fanin[f.Pin]
	return fmt.Sprintf("%s.in%d(%s) s-a-%v", c.NameOf(f.Gate), f.Pin, c.NameOf(src), f.SA)
}

// Site returns the net whose value the fault corrupts: the gate's own
// net for a stem fault, or the source net for an input-branch fault
// (the corruption is seen only by that branch).
func (f Fault) Site(c *logic.Circuit) int {
	if f.Pin == Stem {
		return f.Gate
	}
	return c.Gates[f.Gate].Fanin[f.Pin]
}

// Universe enumerates the full single stuck-at fault universe: two
// faults (s-a-0, s-a-1) on every gate output and every gate input pin.
// For a circuit of G two-input gates this yields 6·G faults, matching
// the paper's "1000 two-input gates → 6000 faults" accounting.
func Universe(c *logic.Circuit) []Fault {
	var fs []Fault
	for id, g := range c.Gates {
		fs = append(fs, Fault{id, Stem, logic.Zero}, Fault{id, Stem, logic.One})
		if g.Type == logic.Input {
			continue
		}
		for p := range g.Fanin {
			fs = append(fs, Fault{id, p, logic.Zero}, Fault{id, p, logic.One})
		}
	}
	return fs
}
