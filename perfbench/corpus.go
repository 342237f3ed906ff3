package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"dft/internal/core"
	"dft/internal/logic"
)

// corpusVersion names the corpus definition. Change it whenever a
// generator parameter changes, so numbers from different corpora are
// never compared. It also seeds the random netlists: their structure
// is fixed by the version, while the run seed draws the patterns, the
// generation and advice seeds, the injected faults and the check
// samples. A netlist's structure sets most of a job's cost, so run
// seeds change what is computed without changing how much.
const corpusVersion = 1

// netlist is one corpus circuit, kept as the .bench text logic.WriteBench
// produced, so every job parses and lints it again through core.Load.
type netlist struct {
	name   string
	bench  []byte
	gates  int
	faults int // collapsed
}

// newNetlist writes c as .bench and reads it back through core.Load.
func newNetlist(name string, c *logic.Circuit) (*netlist, error) {
	c.Name = name
	var buf bytes.Buffer
	if err := logic.WriteBench(&buf, c); err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	n := &netlist{name: name, bench: buf.Bytes()}
	d, err := n.load()
	if err != nil {
		return nil, err
	}
	n.gates = d.Circuit.NumGates()
	n.faults = len(d.Faults())
	return n, nil
}

func (n *netlist) load() (*core.Design, error) {
	return core.Load(n.name, bytes.NewReader(n.bench))
}

// logCorpus records the corpus on standard error, one netlist a line.
func logCorpus(workload string, seed int64, nets []*netlist) {
	for _, n := range nets {
		fmt.Fprintf(os.Stderr, "perfbench: corpus v%d %s seed %d: %s gates=%d faults=%d\n",
			corpusVersion, workload, seed, n.name, n.gates, n.faults)
	}
}

// derive mixes a run seed with indices into an independent stream seed
// (splitmix64), so each corpus item has its own reproducible source.
func derive(seed int64, parts ...int64) int64 {
	z := uint64(seed)
	for _, p := range parts {
		z += 0x9E3779B97F4A7C15 + uint64(p)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

func rng(seed int64, parts ...int64) *rand.Rand {
	return rand.New(rand.NewSource(derive(seed, parts...)))
}

// randomPatterns draws n fully specified patterns of the given width.
func randomPatterns(r *rand.Rand, n, width int) [][]bool {
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, width)
		for j := range p {
			p[j] = r.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}
