package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseBench reads a circuit in the ISCAS-85/89 ".bench" format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(f)
//	b = DFF(d)
//	f = NAND(a, b)
//
// Supported functions: BUF/BUFF, NOT, AND, NAND, OR, NOR, XOR, XNOR, DFF,
// CONST0/GND, CONST1/VDD. Nets may be used before their defining line.
// Every net has one driver — an INPUT declaration or one gate — and
// every gate's input count keeps its type's MinFanin/MaxFanin contract;
// a file breaking either, or naming a gate with an empty name, is
// rejected with its file and line. The returned circuit is finalized.
//
// Gates are numbered inputs first (in declaration order), then
// flip-flops (in definition order), then every combinational gate in
// the depth-first post-order of its fanin, walked from each definition
// in file order.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	var b strings.Builder
	if lr, ok := r.(interface{ Len() int }); ok {
		b.Grow(lr.Len())
	}
	if _, err := io.Copy(&b, r); err != nil {
		return nil, err
	}
	return ParseBenchString(name, b.String())
}

// ParseBenchString is ParseBench over an in-memory string.
func ParseBenchString(name, src string) (*Circuit, error) {
	p := benchParser{name: name}
	if err := p.scan(src); err != nil {
		return nil, err
	}
	return p.build()
}

// maxBenchLine is the longest line ParseBench accepts, in bytes.
const maxBenchLine = 16 << 20

// benchParser reads a .bench document in one pass over its lines,
// interning every net name once; build then numbers the gates.
type benchParser struct {
	name   string
	names  map[string]int // net name → name index
	nameOf []string       // name index → net name
	// driver holds each name's driver: 0 none yet, -1 an INPUT
	// declaration, k+1 the gate defs[k].
	driver  []int32
	inputs  []int32 // name indices, in declaration order
	outputs []int32 // name indices, in declaration order
	defs    []benchDef
	fanin   []int32 // every gate's fanin name indices, back to back
}

// benchDef is one gate line: its type, the name it drives and its
// fanin names fanin[lo:hi].
type benchDef struct {
	typ    GateType
	name   int32
	lo, hi int32
}

func (p *benchParser) errorf(lineNo int, format string, args ...any) error {
	return fmt.Errorf("bench %s:%d: %s", p.name, lineNo, fmt.Sprintf(format, args...))
}

// intern returns the name index of s, adding it when new.
func (p *benchParser) intern(s string) int32 {
	if n, ok := p.names[s]; ok {
		return int32(n)
	}
	n := len(p.nameOf)
	p.names[s] = n
	p.nameOf = append(p.nameOf, s)
	p.driver = append(p.driver, 0)
	return int32(n)
}

// scan reads every line of src into declarations and gate
// definitions, checking everything that one line can break.
func (p *benchParser) scan(src string) error {
	// Size the tables for one net per 24 bytes of text, a little more
	// than a typical gate line holds. Line count would overshoot on
	// blank and comment lines; this bounds what any document can make
	// the parse allocate to a small multiple of its own size.
	nets := len(src) / 24
	p.names = make(map[string]int, nets)
	p.nameOf = make([]string, 0, nets)
	p.driver = make([]int32, 0, nets)
	p.defs = make([]benchDef, 0, nets)
	p.fanin = make([]int32, 0, 3*nets)
	for lineNo := 1; src != ""; lineNo++ {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		if len(line) >= maxBenchLine {
			return bufio.ErrTooLong
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasUpperPrefix(line, "INPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return p.errorf(lineNo, "%v", err)
			}
			n := p.intern(arg)
			switch {
			case p.driver[n] < 0:
				return p.errorf(lineNo, "input %q declared twice", arg)
			case p.driver[n] > 0:
				return p.errorf(lineNo, "input %q is also driven by a gate", arg)
			}
			p.driver[n] = -1
			p.inputs = append(p.inputs, n)
			continue
		case hasUpperPrefix(line, "OUTPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return p.errorf(lineNo, "%v", err)
			}
			p.outputs = append(p.outputs, p.intern(arg))
			continue
		}
		if err := p.gate(lineNo, line); err != nil {
			return err
		}
	}
	return nil
}

// gate reads one "lhs = FN(a, b, ...)" line.
func (p *benchParser) gate(lineNo int, line string) error {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return p.errorf(lineNo, "expected assignment, got %q", line)
	}
	lhs := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close_ := strings.LastIndexByte(rhs, ')')
	if open < 0 || close_ < open {
		return p.errorf(lineNo, "malformed gate expression %q", rhs)
	}
	lo := len(p.fanin)
	if args := strings.TrimSpace(rhs[open+1 : close_]); args != "" {
		for more := true; more; {
			var arg string
			arg, args, more = strings.Cut(args, ",")
			p.fanin = append(p.fanin, p.intern(strings.TrimSpace(arg)))
		}
	}
	// ToUpper copies nothing when the name is upper case already.
	fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	typ, ok := benchType(fn)
	if !ok {
		return p.errorf(lineNo, "unknown function %q", fn)
	}
	out := p.intern(lhs)
	switch {
	case p.driver[out] > 0:
		return p.errorf(lineNo, "net %q defined twice", lhs)
	case p.driver[out] < 0:
		return p.errorf(lineNo, "input %q is also driven by a gate", lhs)
	}
	if n := len(p.fanin) - lo; n < typ.MinFanin() || typ.MaxFanin() >= 0 && n > typ.MaxFanin() {
		return p.errorf(lineNo, "%s %q has %d inputs, want %s", fn, lhs, n, faninWant(typ))
	}
	if lhs == "" {
		return p.errorf(lineNo, "empty name in %q", line)
	}
	p.driver[out] = int32(len(p.defs) + 1)
	p.defs = append(p.defs, benchDef{typ: typ, name: out, lo: int32(lo), hi: int32(len(p.fanin))})
	return nil
}

// build numbers the gates — inputs, then flip-flops, then each
// combinational gate after its fanin — and reports the first net used
// but never defined or the first combinational cycle met on the way.
func (p *benchParser) build() (*Circuit, error) {
	const (
		unplaced = -1
		visiting = -2
	)
	// Copy the names into one string, so the circuit keeps no
	// reference to the source text.
	arena := strings.Join(p.nameOf, "")
	for n, s := range p.nameOf {
		p.nameOf[n], arena = arena[:len(s)], arena[len(s):]
	}
	id := make([]int32, len(p.nameOf))
	for i := range id {
		id[i] = unplaced
	}
	gates := make([]Gate, 0, len(p.inputs)+len(p.defs))
	place := func(n int32, g Gate) {
		id[n] = int32(len(gates))
		gates = append(gates, g)
	}
	pis := make([]int, len(p.inputs))
	for i, n := range p.inputs {
		pis[i] = len(gates)
		place(n, Gate{Type: Input, Name: p.nameOf[n]})
	}
	// Flip-flop outputs come first: a DFF may close a loop, so its
	// fanin is patched once every combinational gate is placed.
	for _, d := range p.defs {
		if d.typ == DFF {
			place(d.name, Gate{Type: DFF, Name: p.nameOf[d.name]})
		}
	}
	undefined := func(n int32) error {
		return fmt.Errorf("bench %s: net %q used but never defined", p.name, p.nameOf[n])
	}
	// fan holds every gate's fanin net IDs, aligned with p.fanin.
	fan := make([]int, len(p.fanin))
	type frame struct{ def, next int32 }
	var stack []frame
	for k, d := range p.defs {
		if d.typ == DFF || id[d.name] != unplaced {
			continue
		}
		id[d.name] = visiting
		stack = append(stack[:0], frame{int32(k), d.lo})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			d := &p.defs[top.def]
			if top.next < d.hi {
				n := p.fanin[top.next]
				top.next++
				switch {
				case id[n] >= 0:
				case p.driver[n] <= 0:
					return nil, undefined(n)
				case id[n] == visiting:
					return nil, fmt.Errorf("bench %s: combinational cycle through %q", p.name, p.nameOf[n])
				default:
					id[n] = visiting
					next := p.driver[n] - 1
					stack = append(stack, frame{next, p.defs[next].lo})
				}
				continue
			}
			for i := d.lo; i < d.hi; i++ {
				fan[i] = int(id[p.fanin[i]])
			}
			place(d.name, Gate{Type: d.typ, Fanin: fan[d.lo:d.hi:d.hi], Name: p.nameOf[d.name]})
			stack = stack[:len(stack)-1]
		}
	}
	for _, d := range p.defs {
		if d.typ != DFF {
			continue
		}
		n := p.fanin[d.lo]
		if id[n] < 0 {
			return nil, undefined(n)
		}
		fan[d.lo] = int(id[n])
		gates[id[d.name]].Fanin = fan[d.lo:d.hi:d.hi]
	}
	pos := make([]int, len(p.outputs))
	for i, n := range p.outputs {
		if id[n] < 0 {
			return nil, undefined(n)
		}
		pos[i] = int(id[n])
	}
	// Every interned name now drives a placed net. The circuit's name
	// index gets a map of its own at its exact size, keyed by the
	// copied names: the parse table was sized from the text.
	byName := make(map[string]int, len(p.nameOf))
	for n, s := range p.nameOf {
		byName[s] = int(id[n])
	}
	c := &Circuit{Name: p.name, Gates: gates, PIs: pis, POs: pos, byName: byName}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// hasUpperPrefix reports whether strings.ToUpper(s) starts with the
// upper-case ASCII word kw, without building the upper-cased copy.
func hasUpperPrefix(s, kw string) bool {
	for i := 0; i < len(kw); i++ {
		if s == "" {
			return false
		}
		r, size := rune(s[0]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s)
		}
		if unicode.ToUpper(r) != rune(kw[i]) {
			return false
		}
		s = s[size:]
	}
	return true
}

func parenArg(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close_ := strings.LastIndexByte(line, ')')
	if open < 0 || close_ < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[open+1 : close_])
	if arg == "" {
		return "", fmt.Errorf("empty name in %q", line)
	}
	return arg, nil
}

// faninWant names the input counts a gate type accepts under its
// MinFanin/MaxFanin contract, for parse errors.
func faninWant(t GateType) string {
	switch t.MaxFanin() {
	case 0:
		return "none"
	case 1:
		return "exactly one"
	}
	return "at least one"
}

func benchType(fn string) (GateType, bool) {
	switch fn {
	case "BUF", "BUFF":
		return Buf, true
	case "NOT", "INV":
		return Not, true
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR":
		return Xnor, true
	case "DFF":
		return DFF, true
	case "CONST0", "GND":
		return Const0, true
	case "CONST1", "VDD":
		return Const1, true
	}
	return 0, false
}

// WriteBench serializes the circuit in .bench format. The output parses
// back to a structurally identical circuit (same names, types, fanin).
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	writeBenchBody(bw, c)
	return bw.Flush()
}

// benchWriter is what writeBenchBody renders into: a *bufio.Writer
// for WriteBench, a *strings.Builder for CanonicalBench.
type benchWriter interface {
	WriteString(s string) (int, error)
	WriteByte(b byte) error
}

// writeBenchBody renders everything of the .bench form below its
// "# name" header: the INPUT and OUTPUT declarations, then one line per
// non-input gate in net order.
func writeBenchBody(w benchWriter, c *Circuit) {
	for _, pi := range c.PIs {
		w.WriteString("INPUT(")
		w.WriteString(c.Gates[pi].Name)
		w.WriteString(")\n")
	}
	for _, po := range c.POs {
		w.WriteString("OUTPUT(")
		w.WriteString(c.Gates[po].Name)
		w.WriteString(")\n")
	}
	for _, g := range c.Gates {
		if g.Type == Input {
			continue
		}
		w.WriteString(g.Name)
		w.WriteString(" = ")
		w.WriteString(benchName(g.Type))
		w.WriteByte('(')
		for i, f := range g.Fanin {
			if i > 0 {
				w.WriteString(", ")
			}
			w.WriteString(c.Gates[f].Name)
		}
		w.WriteString(")\n")
	}
}

func benchName(t GateType) string {
	switch t {
	case Buf:
		return "BUFF"
	case Const0:
		return "CONST0"
	case Const1:
		return "CONST1"
	}
	return t.String()
}

// BenchString renders the circuit as a .bench document.
func BenchString(c *Circuit) string {
	var b strings.Builder
	if err := WriteBench(&b, c); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return b.String()
}
