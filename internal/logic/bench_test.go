package logic

import (
	"runtime"
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

// TestParseBenchErrorText pins the exact error text of every rejection
// branch: malformed or empty declarations, duplicate and gate-driven
// inputs, a missing "=", malformed expressions, unknown functions
// (upper-cased with Unicode case mapping), nets defined twice, the
// fanin contract, empty gate names, undefined nets and combinational
// cycles. Line numbers count blank and comment lines; errors found
// while emitting gates carry no line.
func TestParseBenchErrorText(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"declparen", "INPUT a\n",
			"bench declparen:1: malformed declaration \"INPUT a\""},
		{"declclose", "INPUT(a\n",
			"bench declclose:1: malformed declaration \"INPUT(a\""},
		{"declorder", "INPUT)a(\n",
			"bench declorder:1: malformed declaration \"INPUT)a(\""},
		{"declempty", "INPUT( )\n",
			"bench declempty:1: empty name in \"INPUT( )\""},
		{"outparen", "INPUT(a)\nOUTPUT a\n",
			"bench outparen:2: malformed declaration \"OUTPUT a\""},
		{"outempty", "INPUT(a)\n  output()  # none\n",
			"bench outempty:2: empty name in \"output()\""},
		{"dupinput", "INPUT(a)\n# c\nINPUT(a)\n",
			"bench dupinput:3: input \"a\" declared twice"},
		{"inputgate", "INPUT(a)\nINPUT(b)\na = NOT(b)\nOUTPUT(a)\n",
			"bench inputgate:3: input \"a\" is also driven by a gate"},
		{"gateinput", "INPUT(b)\na = NOT(b)\nINPUT(a)\nOUTPUT(a)\n",
			"bench gateinput:3: input \"a\" is also driven by a gate"},
		{"inputdff", "INPUT(a)\na = DFF(a)\nOUTPUT(a)\n",
			"bench inputdff:2: input \"a\" is also driven by a gate"},
		{"noassign", "INPUT(a)\n\n  garbage line # trailing\n",
			"bench noassign:3: expected assignment, got \"garbage line\""},
		{"noparen", "INPUT(a)\ny = AND a, b\n",
			"bench noparen:2: malformed gate expression \"AND a, b\""},
		{"parenorder", "INPUT(a)\ny = AND)a(\n",
			"bench parenorder:2: malformed gate expression \"AND)a(\""},
		{"unknownfn", "INPUT(a)\ny = frob(a)\nOUTPUT(y)\n",
			"bench unknownfn:2: unknown function \"FROB\""},
		{"unknownfold", "INPUT(a)\ny = ſtuff (a)\nOUTPUT(y)\n",
			"bench unknownfold:2: unknown function \"STUFF\""},
		{"unknownfirst", "INPUT(a)\ny = NOT(a)\ny = FROB(a)\n",
			"bench unknownfirst:3: unknown function \"FROB\""},
		{"redef", "INPUT(a)\ny = NOT(a)\ny = BUF(a)\nOUTPUT(y)\n",
			"bench redef:3: net \"y\" defined twice"},
		{"notarity", "INPUT(a)\nINPUT(b)\ny = not(a, b)\nOUTPUT(y)\n",
			"bench notarity:3: NOT \"y\" has 2 inputs, want exactly one"},
		{"dffarity", "INPUT(a)\nq = DFF()\nOUTPUT(q)\n",
			"bench dffarity:2: DFF \"q\" has 0 inputs, want exactly one"},
		{"andempty", "INPUT(a)\ny = AND( )\nOUTPUT(y)\n",
			"bench andempty:2: AND \"y\" has 0 inputs, want at least one"},
		{"constarity", "INPUT(a)\ny = VDD(a)\nOUTPUT(y)\n",
			"bench constarity:2: VDD \"y\" has 1 inputs, want none"},
		{"undefout", "INPUT(a)\nOUTPUT(y)\n",
			"bench undefout: net \"y\" used but never defined"},
		{"undeffanin", "INPUT(a)\nOUTPUT(y)\ny = AND(a, m)\n",
			"bench undeffanin: net \"m\" used but never defined"},
		{"undefempty", "INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n",
			"bench undefempty: net \"\" used but never defined"},
		{"undefdff", "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\n",
			"bench undefdff: net \"d\" used but never defined"},
		{"selfloop", "INPUT(a)\ny = AND(a, y)\nOUTPUT(y)\n",
			"bench selfloop: combinational cycle through \"y\""},
		{"cycle", "INPUT(a)\np = AND(a, q)\nq = AND(a, p)\nOUTPUT(q)\n",
			"bench cycle: combinational cycle through \"p\""},
		{"cycledeep", "INPUT(a)\nOUTPUT(z)\nz = OR(a, p)\np = AND(a, r)\nq = NOT(p)\nr = BUF(q)\n",
			"bench cycledeep: combinational cycle through \"p\""},
		{"emptyname", "INPUT(a)\nOUTPUT(n1)\n = NOT(a)\nn1 = BUF(a)\n",
			"bench emptyname:3: empty name in \"= NOT(a)\""},
		{"cyclefirst", "INPUT(a)\nOUTPUT(y)\ny = AND(x, m)\nx = AND(a, x)\n",
			"bench cyclefirst: combinational cycle through \"x\""},
	}
	for _, c := range cases {
		_, err := ParseBenchString(c.name, c.src)
		if err == nil {
			t.Errorf("%s: parsed, want error %q", c.name, c.want)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

// TestParseBenchKeepsNoSourceText: a parsed circuit holds its net names
// in a string of their own, not as slices of the document, so a
// retained circuit (the service's interner keeps them) does not pin a
// document padded with comments.
func TestParseBenchKeepsNoSourceText(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	src := "INPUT(a)\nOUTPUT(y)\n" + strings.Repeat("# padding the document\n", 1<<18) + "y = NOT(a)\n"
	c, err := ParseBench("padded", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	src = ""
	if grown := heap() - before; grown > 1<<20 {
		t.Fatalf("a 2-net circuit parsed from %d bytes holds %d bytes of heap", 23<<18, grown)
	}
	runtime.KeepAlive(c)
}
