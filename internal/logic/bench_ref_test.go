package logic

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
)

// parseBenchRef is the line-scanner ParseBench that the one-pass reader
// replaced: per-line string splitting, string-keyed maps and recursive
// gate emission. It is the reference the reader must reproduce exactly
// (FuzzParseBenchReference), with one change: a gate line with an empty
// output name is rejected, as the reader rejects it, where this code
// used to give the gate a generated name (and could panic when that
// name was defined later in the file).
func parseBenchRef(name string, r io.Reader) (*Circuit, error) {
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
		if lhs == "" {
			return nil, fmt.Errorf("bench %s:%d: empty name in %q", name, lineNo, line)
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

// ParseBenchRef exports parseBenchRef to the external fuzz test.
var ParseBenchRef = parseBenchRef

// DiffParse describes the first difference between two parses of one
// document, or returns "" when they agree on the gate table, PIs, POs,
// the name index and the finalized DFFs, levels, order and fanout.
func DiffParse(got, want *Circuit) string {
	if got.Name != want.Name || len(got.Gates) != len(want.Gates) {
		return fmt.Sprintf("%s with %d nets, reference %s with %d", got.Name, len(got.Gates), want.Name, len(want.Gates))
	}
	for id, g := range got.Gates {
		w := want.Gates[id]
		if g.Type != w.Type || g.Name != w.Name || !slices.Equal(g.Fanin, w.Fanin) {
			return fmt.Sprintf("gate %d is %s %q %v, reference %s %q %v", id, g.Type, g.Name, g.Fanin, w.Type, w.Name, w.Fanin)
		}
	}
	switch {
	case !slices.Equal(got.PIs, want.PIs) || !slices.Equal(got.POs, want.POs):
		return fmt.Sprintf("PIs %v POs %v, reference %v %v", got.PIs, got.POs, want.PIs, want.POs)
	case !reflect.DeepEqual(got.byName, want.byName):
		return fmt.Sprintf("name index %v, reference %v", got.byName, want.byName)
	case !slices.Equal(got.DFFs, want.DFFs) || !slices.Equal(got.Level, want.Level) || !slices.Equal(got.Order, want.Order):
		return "finalized DFFs, levels or order differ from the reference"
	}
	for n := range got.Fanout {
		if !slices.Equal(got.Fanout[n], want.Fanout[n]) {
			return fmt.Sprintf("net %d fanout %v, reference %v", n, got.Fanout[n], want.Fanout[n])
		}
	}
	return ""
}
