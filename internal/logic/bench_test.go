package logic

import (
	"strings"
	"testing"
)

const c17Bench = `
# c17 ISCAS-85
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s := c.Stats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 6 {
		t.Fatalf("c17 stats: %v", s)
	}
	if s.ByType[Nand] != 6 {
		t.Fatalf("expected 6 NANDs, got %d", s.ByType[Nand])
	}
}

func TestParseBenchForwardReference(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = AND(m, a)   # m defined later
m = NOT(a)
`
	c, err := ParseBenchString("fwd", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.NumGates() != 2 {
		t.Fatalf("gates = %d, want 2", c.NumGates())
	}
}

func TestParseBenchSequential(t *testing.T) {
	src := `
INPUT(d)
OUTPUT(q)
q = DFF(n)
n = XOR(d, q)
`
	c, err := ParseBenchString("seq", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if c.NumDFFs() != 1 {
		t.Fatalf("dffs = %d, want 1", c.NumDFFs())
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"undefined", "INPUT(a)\nOUTPUT(y)\n", "never defined"},
		{"badfn", "INPUT(a)\ny = FROB(a)\nOUTPUT(y)", "unknown function"},
		{"redef", "INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)", "defined twice"},
		{"cycle", "INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nOUTPUT(q)", "cycle"},
		{"noassign", "INPUT(a)\ngarbage line\n", "assignment"},
		{"dffarity", "INPUT(a)\nINPUT(b)\nq = DFF(a, b)\nOUTPUT(q)", "exactly one"},
		{"dupinput", "INPUT(a)\nINPUT(a)\nOUTPUT(a)", "dupinput:2: input \"a\" declared twice"},
		{"inputdff", "INPUT(a)\na = DFF(a)\nOUTPUT(a)", "inputdff:2: input \"a\" is also driven by a gate"},
		{"inputgate", "INPUT(a)\nINPUT(b)\na = NOT(b)\nOUTPUT(a)", "inputgate:3: input \"a\" is also driven by a gate"},
		{"gateinput", "a = NOT(b)\nINPUT(a)\nINPUT(b)\nOUTPUT(a)", "gateinput:2: input \"a\" is also driven by a gate"},
		{"notarity", "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)", "notarity:3: NOT \"y\" has 2 inputs, want exactly one"},
		{"andempty", "INPUT(a)\ny = AND()\nOUTPUT(y)", "andempty:2: AND \"y\" has 0 inputs, want at least one"},
		{"constarity", "INPUT(a)\ny = VDD(a)\nOUTPUT(y)", "constarity:2: VDD \"y\" has 1 inputs, want none"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseBenchString(c.name, c.src); err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantSub)
			} else if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := BenchString(orig)
	back, err := ParseBenchString("c17rt", text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if got, want := back.Stats(), orig.Stats(); got.Nets != want.Nets ||
		got.Gates != want.Gates || got.Inputs != want.Inputs || got.Outputs != want.Outputs {
		t.Fatalf("round trip changed structure: %v vs %v", got, want)
	}
	// Same names present.
	a, b := orig.SortedNames(), back.SortedNames()
	if len(a) != len(b) {
		t.Fatalf("name count changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("name %d changed: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestBenchRoundTripSequential(t *testing.T) {
	src := `
INPUT(d)
OUTPUT(q2)
q1 = DFF(d)
q2 = DFF(q1)
`
	orig, err := ParseBenchString("sr2", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	back, err := ParseBenchString("sr2rt", BenchString(orig))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumDFFs() != 2 {
		t.Fatalf("dffs = %d, want 2", back.NumDFFs())
	}
}
