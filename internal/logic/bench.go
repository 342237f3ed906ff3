package logic

import (
	"bufio"
	"fmt"
	"io"
	"strings"
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
// a file breaking either is rejected with its file and line. The
// returned circuit is finalized.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type protoGate struct {
		typ   GateType
		fanin []string
	}
	var (
		inputs  []string
		inLine  = map[string]int{} // declaring line of each input
		outputs []string
		defs    = map[string]protoGate{}
		order   []string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(upper, "INPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s:%d: %v", name, lineNo, err)
			}
			if _, dup := inLine[arg]; dup {
				return nil, fmt.Errorf("bench %s:%d: input %q declared twice", name, lineNo, arg)
			}
			if _, dup := defs[arg]; dup {
				return nil, fmt.Errorf("bench %s:%d: input %q is also driven by a gate", name, lineNo, arg)
			}
			inLine[arg] = lineNo
			inputs = append(inputs, arg)
			continue
		case strings.HasPrefix(upper, "OUTPUT"):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s:%d: %v", name, lineNo, err)
			}
			outputs = append(outputs, arg)
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bench %s:%d: expected assignment, got %q", name, lineNo, line)
		}
		lhs := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		open := strings.IndexByte(rhs, '(')
		close_ := strings.LastIndexByte(rhs, ')')
		if open < 0 || close_ < open {
			return nil, fmt.Errorf("bench %s:%d: malformed gate expression %q", name, lineNo, rhs)
		}
		fn := strings.ToUpper(strings.TrimSpace(rhs[:open]))
		var fanin []string
		if args := strings.TrimSpace(rhs[open+1 : close_]); args != "" {
			for _, a := range strings.Split(args, ",") {
				fanin = append(fanin, strings.TrimSpace(a))
			}
		}
		typ, ok := benchType(fn)
		if !ok {
			return nil, fmt.Errorf("bench %s:%d: unknown function %q", name, lineNo, fn)
		}
		if _, dup := defs[lhs]; dup {
			return nil, fmt.Errorf("bench %s:%d: net %q defined twice", name, lineNo, lhs)
		}
		if _, dup := inLine[lhs]; dup {
			return nil, fmt.Errorf("bench %s:%d: input %q is also driven by a gate", name, lineNo, lhs)
		}
		if n := len(fanin); n < typ.MinFanin() || typ.MaxFanin() >= 0 && n > typ.MaxFanin() {
			return nil, fmt.Errorf("bench %s:%d: %s %q has %d inputs, want %s", name, lineNo, fn, lhs, n, faninWant(typ))
		}
		defs[lhs] = protoGate{typ: typ, fanin: fanin}
		order = append(order, lhs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	c := New(name)
	ids := map[string]int{}
	for _, in := range inputs {
		ids[in] = c.AddInput(in)
	}
	// Define gates in dependency order: DFF outputs first (they may be
	// referenced cyclically), then combinational gates topologically.
	for _, lhs := range order {
		if defs[lhs].typ == DFF {
			ids[lhs] = c.add(Gate{Type: DFF, Name: lhs}) // fanin patched below
		}
	}
	var emit func(lhs string) (int, error)
	visiting := map[string]bool{}
	emit = func(lhs string) (int, error) {
		if id, ok := ids[lhs]; ok {
			return id, nil
		}
		pg, ok := defs[lhs]
		if !ok {
			return 0, fmt.Errorf("bench %s: net %q used but never defined", name, lhs)
		}
		if visiting[lhs] {
			return 0, fmt.Errorf("bench %s: combinational cycle through %q", name, lhs)
		}
		visiting[lhs] = true
		fan := make([]int, len(pg.fanin))
		for i, f := range pg.fanin {
			id, err := emit(f)
			if err != nil {
				return 0, err
			}
			fan[i] = id
		}
		visiting[lhs] = false
		id := c.add(Gate{Type: pg.typ, Fanin: fan, Name: lhs})
		ids[lhs] = id
		return id, nil
	}
	for _, lhs := range order {
		if defs[lhs].typ == DFF {
			continue
		}
		if _, err := emit(lhs); err != nil {
			return nil, err
		}
	}
	// Patch DFF data inputs.
	for _, lhs := range order {
		pg := defs[lhs]
		if pg.typ != DFF {
			continue
		}
		did, err := emit(pg.fanin[0])
		if err != nil {
			return nil, err
		}
		c.Gates[ids[lhs]].Fanin = []int{did}
	}
	for _, out := range outputs {
		id, err := emit(out)
		if err != nil {
			return nil, err
		}
		c.MarkOutput(id)
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseBenchString is ParseBench over an in-memory string.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
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
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[pi].Name)
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[po].Name)
	}
	for id, g := range c.Gates {
		if g.Type == Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", c.Gates[id].Name, benchName(g.Type), strings.Join(names, ", "))
	}
	return bw.Flush()
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
