package logic

import (
	"fmt"
	"sort"
)

// Circuit is a gate-level logic network. Every element (gate, primary
// input, or flip-flop) drives exactly one net, identified by the
// element's index in Gates. Primary outputs are a list of net IDs; a net
// may be both internal and a primary output.
//
// Sequential circuits contain DFF elements; the DFF output net behaves
// as a pseudo primary input to the combinational core and its D input
// as a pseudo primary output. All analysis and test generation in the
// toolkit is expressed against this model.
type Circuit struct {
	Name  string
	Gates []Gate
	PIs   []int // net IDs of primary inputs, in declaration order
	POs   []int // net IDs of primary outputs, in declaration order

	// derived, built by Finalize
	DFFs    []int   // net IDs (element indices) of flip-flops
	Fanout  [][]int // Fanout[n] lists gates reading net n
	Level   []int   // combinational level (Inputs and DFF outputs at 0)
	Order   []int   // combinational gates in topological order
	byName  map[string]int
	final   bool
	maxFan  int
	numComb int
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: map[string]int{}}
}

// nextName generates a fresh net name when the caller did not supply one.
func (c *Circuit) nextName(prefix string) string {
	for i := len(c.Gates); ; i++ {
		n := fmt.Sprintf("%s%d", prefix, i)
		if _, dup := c.byName[n]; !dup {
			return n
		}
	}
}

// add appends an element and registers its name, returning the net ID.
func (c *Circuit) add(g Gate) int {
	if c.final {
		panic("logic: modifying a finalized circuit")
	}
	if g.Name == "" {
		g.Name = c.nextName("n")
	}
	if _, dup := c.byName[g.Name]; dup {
		panic(fmt.Sprintf("logic: duplicate net name %q", g.Name))
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, g)
	c.byName[g.Name] = id
	return id
}

// AddInput declares a primary input and returns its net ID.
func (c *Circuit) AddInput(name string) int {
	id := c.add(Gate{Type: Input, Name: name})
	c.PIs = append(c.PIs, id)
	return id
}

// AddGate adds a combinational gate reading the given nets and returns
// the net ID it drives. The name may be empty.
func (c *Circuit) AddGate(t GateType, name string, fanin ...int) int {
	if !t.IsCombinational() {
		panic("logic: AddGate with non-combinational type " + t.String())
	}
	if min := t.MinFanin(); len(fanin) < min {
		panic(fmt.Sprintf("logic: %s requires at least %d fanin, got %d", t, min, len(fanin)))
	}
	if max := t.MaxFanin(); max >= 0 && len(fanin) > max {
		panic(fmt.Sprintf("logic: %s accepts at most %d fanin, got %d", t, max, len(fanin)))
	}
	for _, f := range fanin {
		if f < 0 || f >= len(c.Gates) {
			panic(fmt.Sprintf("logic: fanin net %d out of range", f))
		}
	}
	return c.add(Gate{Type: t, Fanin: append([]int(nil), fanin...), Name: name})
}

// AddDFF adds a D flip-flop whose D input is net d, returning the net ID
// of the flip-flop output (its present state).
func (c *Circuit) AddDFF(name string, d int) int {
	if d < 0 || d >= len(c.Gates) {
		panic(fmt.Sprintf("logic: DFF data net %d out of range", d))
	}
	return c.add(Gate{Type: DFF, Fanin: []int{d}, Name: name})
}

// MarkOutput declares net id as a primary output.
func (c *Circuit) MarkOutput(id int) {
	if id < 0 || id >= len(c.Gates) {
		panic(fmt.Sprintf("logic: output net %d out of range", id))
	}
	c.POs = append(c.POs, id)
}

// NetByName returns the net ID carrying the given name.
func (c *Circuit) NetByName(name string) (int, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// NameOf returns the name of net id.
func (c *Circuit) NameOf(id int) string { return c.Gates[id].Name }

// NumNets returns the total number of nets (elements).
func (c *Circuit) NumNets() int { return len(c.Gates) }

// NumGates returns the number of combinational gates.
func (c *Circuit) NumGates() int {
	if c.final {
		return c.numComb
	}
	n := 0
	for _, g := range c.Gates {
		if g.Type.IsCombinational() {
			n++
		}
	}
	return n
}

// NumDFFs returns the number of flip-flops.
func (c *Circuit) NumDFFs() int {
	if c.final {
		return len(c.DFFs)
	}
	n := 0
	for _, g := range c.Gates {
		if g.Type == DFF {
			n++
		}
	}
	return n
}

// IsSequential reports whether the circuit contains storage elements.
func (c *Circuit) IsSequential() bool { return c.NumDFFs() > 0 }

// MaxFanin returns the largest gate fanin in the circuit.
func (c *Circuit) MaxFanin() int {
	if c.final {
		return c.maxFan
	}
	m := 0
	for _, g := range c.Gates {
		if len(g.Fanin) > m {
			m = len(g.Fanin)
		}
	}
	return m
}

// Finalize validates the circuit, computes fanout lists, levelizes the
// combinational core (DFF outputs count as level-0 sources), and freezes
// the structure. It must be called before simulation or analysis.
func (c *Circuit) Finalize() error {
	if c.final {
		return nil
	}
	n := len(c.Gates)
	c.DFFs = c.DFFs[:0]
	c.maxFan = 0
	c.numComb = 0
	// Count each net's readers, then carve every fanout list out of
	// one backing array (nil for a net nobody reads).
	readers := make([]int, n)
	edges := 0
	for id, g := range c.Gates {
		if len(g.Fanin) > c.maxFan {
			c.maxFan = len(g.Fanin)
		}
		switch g.Type {
		case DFF:
			c.DFFs = append(c.DFFs, id)
		case Input:
		default:
			c.numComb++
		}
		for _, f := range g.Fanin {
			if f < 0 || f >= n {
				return fmt.Errorf("logic: %s: gate %d (%s) fanin %d out of range", c.Name, id, g.Name, f)
			}
			readers[f]++
		}
		edges += len(g.Fanin)
	}
	c.Fanout = make([][]int, n)
	backing := make([]int, edges)
	for net, k := range readers {
		if k > 0 {
			c.Fanout[net], backing = backing[:0:k], backing[k:]
		}
	}
	for id, g := range c.Gates {
		for _, f := range g.Fanin {
			c.Fanout[f] = append(c.Fanout[f], id)
		}
	}
	// Levelize by Kahn's algorithm over combinational edges only.
	// Sources: Inputs, DFFs, constants (fanin-free combinational gates).
	c.Level = make([]int, n)
	indeg := make([]int, n)
	for id, g := range c.Gates {
		if g.Type == Input || g.Type == DFF {
			indeg[id] = 0
		} else {
			indeg[id] = len(g.Fanin)
		}
	}
	queue := make([]int, 0, n)
	for id := range c.Gates {
		if indeg[id] == 0 {
			queue = append(queue, id)
			c.Level[id] = 0
		}
	}
	c.Order = c.Order[:0]
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		if c.Gates[id].Type.IsCombinational() {
			c.Order = append(c.Order, id)
		}
		for _, s := range c.Fanout[id] {
			if c.Gates[s].Type == DFF {
				continue // sequential edge: not part of the combinational DAG
			}
			indeg[s]--
			if lv := c.Level[id] + 1; lv > c.Level[s] {
				c.Level[s] = lv
			}
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	// DFFs were never enqueued as successors but are sources; count them.
	if seen != n {
		return fmt.Errorf("logic: %s: combinational cycle detected (%d of %d nets levelized)", c.Name, seen, n)
	}
	c.final = true
	return nil
}

// MustFinalize is Finalize that panics on error; for use with circuits
// constructed programmatically where a cycle is a programming bug.
func (c *Circuit) MustFinalize() *Circuit {
	if err := c.Finalize(); err != nil {
		panic(err)
	}
	return c
}

// Depth returns the maximum combinational level (0 for an empty or
// source-only circuit). The circuit must be finalized.
func (c *Circuit) Depth() int {
	c.mustBeFinal()
	d := 0
	for _, l := range c.Level {
		if l > d {
			d = l
		}
	}
	return d
}

func (c *Circuit) mustBeFinal() {
	if !c.final {
		panic("logic: circuit not finalized; call Finalize first")
	}
}

// Stats summarizes the structure of a circuit.
type Stats struct {
	Nets      int
	Inputs    int
	Outputs   int
	Gates     int
	DFFs      int
	Depth     int
	MaxFanin  int
	MaxFanout int
	ByType    map[GateType]int
}

// Stats computes structural statistics. The circuit must be finalized.
func (c *Circuit) Stats() Stats {
	c.mustBeFinal()
	s := Stats{
		Nets:     len(c.Gates),
		Inputs:   len(c.PIs),
		Outputs:  len(c.POs),
		Gates:    c.numComb,
		DFFs:     len(c.DFFs),
		Depth:    c.Depth(),
		MaxFanin: c.maxFan,
		ByType:   map[GateType]int{},
	}
	for _, g := range c.Gates {
		s.ByType[g.Type]++
	}
	for _, fo := range c.Fanout {
		if len(fo) > s.MaxFanout {
			s.MaxFanout = len(fo)
		}
	}
	return s
}

// String renders a short structural summary.
func (s Stats) String() string {
	return fmt.Sprintf("nets=%d in=%d out=%d gates=%d dffs=%d depth=%d maxfanin=%d maxfanout=%d",
		s.Nets, s.Inputs, s.Outputs, s.Gates, s.DFFs, s.Depth, s.MaxFanin, s.MaxFanout)
}

// Clone returns a deep copy of the circuit in non-finalized state, so the
// copy may be further edited (e.g., by scan insertion).
func (c *Circuit) Clone() *Circuit {
	nc := New(c.Name)
	nc.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		nc.Gates[i] = Gate{Type: g.Type, Name: g.Name, Fanin: append([]int(nil), g.Fanin...)}
		nc.byName[g.Name] = i
	}
	nc.PIs = append([]int(nil), c.PIs...)
	nc.POs = append([]int(nil), c.POs...)
	return nc
}

// SortedNames returns all net names in lexical order (test helper).
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.Gates))
	for _, g := range c.Gates {
		names = append(names, g.Name)
	}
	sort.Strings(names)
	return names
}
