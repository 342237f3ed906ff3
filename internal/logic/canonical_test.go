package logic_test

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
)

// benchStringRef is the Fprintf rendering WriteBench used before it
// shared its body writer with CanonicalBench.
func benchStringRef(c *logic.Circuit) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[pi].Name)
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[po].Name)
	}
	for _, g := range c.Gates {
		if g.Type == logic.Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.Gates[f].Name
		}
		t := g.Type.String()
		switch g.Type {
		case logic.Buf:
			t = "BUFF"
		case logic.Const0:
			t = "CONST0"
		case logic.Const1:
			t = "CONST1"
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, t, strings.Join(names, ", "))
	}
	bw.Flush()
	return b.String()
}

// canonicalBenchRef is the two-copy CanonicalBench: the whole rendering
// split on newlines, with every comment line dropped.
func canonicalBenchRef(c *logic.Circuit) string {
	var out strings.Builder
	for _, line := range strings.Split(benchStringRef(c), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String()
}

// The one-pass renderings are byte-identical to the old ones on every
// builtin generator (at its default size and at size 5) and on the
// fuzzdiff generator's circuits, so service dedup keys and dictionary
// NetSHAs computed before the change stay valid.
func TestCanonicalBenchMatchesReference(t *testing.T) {
	var cs []*logic.Circuit
	for _, name := range circuits.BuiltinNames() {
		for _, n := range []int{0, 5} {
			c, err := circuits.Builtin(name, n)
			if err != nil {
				continue // a size the generator rejects, such as an even majority voter
			}
			cs = append(cs, c)
		}
	}
	for seed := int64(-20); seed <= 150; seed++ {
		cs = append(cs, fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed))
	}
	for _, c := range cs {
		if got, want := logic.BenchString(c), benchStringRef(c); got != want {
			t.Fatalf("%s: BenchString differs from the reference rendering", c.Name)
		}
		if got, want := logic.CanonicalBench(c), canonicalBenchRef(c); got != want {
			t.Fatalf("%s: CanonicalBench differs from the reference rendering", c.Name)
		}
	}
}
