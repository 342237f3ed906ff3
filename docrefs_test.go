package dft

// The documents cite tests and benchmarks as the evidence behind their
// claims. Every backticked Test…/Benchmark…/Fuzz… name in them must be
// a func in some *_test.go file of the repository, or the citation
// points at nothing.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	codeSpanRE = regexp.MustCompile("`[^`\n]+`")
	// A cited name may end in a brace list (`BenchmarkX{A,B}` names
	// BenchmarkXA and BenchmarkXB) or a star (`BenchmarkX*` names at
	// least one func with that prefix).
	citedNameRE = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\{[\w,]+\}|\*)?`)
)

func TestDocsCiteExistingTests(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hasPrefix := func(prefix string) bool {
		for name := range funcs {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for _, span := range codeSpanRE.FindAllString(string(text), -1) {
			for _, m := range citedNameRE.FindAllStringSubmatch(span, -1) {
				cited++
				name, suffix := m[1], m[2]
				switch {
				case suffix == "*":
					if !hasPrefix(name) {
						t.Errorf("%s cites %s*: no func has that prefix", doc, name)
					}
				case suffix != "":
					for _, alt := range strings.Split(strings.Trim(suffix, "{}"), ",") {
						if !funcs[name+alt] {
							t.Errorf("%s cites %s (in %s): no such func", doc, name+alt, m[0])
						}
					}
				case !funcs[name]:
					t.Errorf("%s cites %s: no such func", doc, name)
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no tests; the scan found nothing to check", doc)
		}
	}
}
