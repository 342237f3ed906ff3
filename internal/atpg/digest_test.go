package atpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/seqatpg"
	"dft/internal/telemetry"
)

// digestCircuits are the designs whose generated tests are pinned by
// digest: two combinational blocks and a sequential one under LSSD.
var digestCircuits = []struct {
	name string
	c    func() *logic.Circuit
	scan bool
}{
	{"alu74181", circuits.ALU74181, false},
	{"mult8", func() *logic.Circuit { return circuits.ArrayMultiplier(8) }, false},
	{"hardcore16", func() *logic.Circuit { return circuits.Hardcore(16) }, true},
}

// wantDigests holds the SHA-256 of each run's serialized output. Any
// change to the five-valued simulator or the search loops that moves a
// single pattern, cube or verdict changes these.
var wantDigests = map[string]string{
	"alu74181/podem":            "aa496a02465ca52f3cd4e2f2c72ac3e5449520fe5635aba113330fa345851fdf",
	"alu74181/generate-podem":   "e6fd2e54bbfb91f036b67b642f0bdd1cb130c24b8746f6eadc99d9b3f616855a",
	"alu74181/dalg":             "bdf9080d0927cfc83f786985821a43ac722be59a9aa89e69f89f1281db7d1680",
	"alu74181/generate-dalg":    "e0838a04a407447a65321c6d8eb655ffe76ce59a53db0b72493707cbaa21ff55",
	"mult8/podem":               "0d1645c50cfe02a5b840cabd004ab727617ad89bb1634731da749669f8a025ac",
	"mult8/generate-podem":      "d6a8eaefbb55ebbf73bd4a79a1c477536997fc1cc29915b26cf955453cb49a89",
	"mult8/dalg":                "88f100bf89dfa8e402227997550de1d1f8f87a2f54d603a9558232bec8026468",
	"mult8/generate-dalg":       "be19a9fde16a3dbef6a91762bc53d66b7ed8eeaa356fc50d080f70aa76f28b5b",
	"hardcore16/podem":          "3c33383fb7936b524858dad0f82e24b3c982408c47c3d668657617d85dcb78c9",
	"hardcore16/generate-podem": "75f7939516b2a9cb448cf116382c44d91abc1287ec4ae1c1a0fc8fbc337774ad",
	"hardcore16/dalg":           "f7ea0676f28e8f976ac3f9e874e428f34f977a8a53bd267fc9b82401158e2eaf",
	"hardcore16/generate-dalg":  "9499d9a078f13ee2345351d3c8e4098c7838f80c2dc3c289e0dddc9db8a11396",
	"hardcore16/seqatpg":        "2edf24a35624679e374d29609e9d9e7aebbad32324e9b9649b87db9e740edbc8",
}

func digestDesign(t *testing.T, mk func() *logic.Circuit, scan bool) *core.Design {
	t.Helper()
	d := core.FromCircuit(mk())
	if scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func writeTests(h hash.Hash, tests []atpg.Test) {
	for _, tc := range tests {
		fmt.Fprintln(h, tc.String())
	}
}

func writeFaults(h hash.Hash, label string, fs []fault.Fault) {
	fmt.Fprintln(h, label, len(fs))
	for _, f := range fs {
		fmt.Fprintln(h, f.String())
	}
}

func checkDigest(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	if want := wantDigests[key]; got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}

// TestGeneratedTestsDigest pins the patterns and verdicts of PODEM, the
// D-algorithm and the ATPG driver (compaction off), and of bounded
// sequential ATPG, so a refactor of the search can be shown to leave
// every output byte-identical.
func TestGeneratedTestsDigest(t *testing.T) {
	for _, dc := range digestCircuits {
		d := digestDesign(t, dc.c, dc.scan)
		view, targets := d.View(), d.Faults()
		for _, eng := range []struct {
			name string
			e    atpg.Engine
			gen  func(*logic.Circuit, atpg.View, fault.Fault, atpg.PodemConfig) (atpg.Test, error)
		}{
			{"podem", atpg.EnginePodem, atpg.Podem},
			{"dalg", atpg.EngineDAlg, atpg.DAlg},
		} {
			cfg := atpg.PodemConfig{MaxBacktracks: 20, Metrics: telemetry.NewRegistry()}
			h := sha256.New()
			for _, f := range targets {
				tc, err := eng.gen(d.Circuit, view, f, cfg)
				fmt.Fprintln(h, f.String(), tc.String(), err)
			}
			checkDigest(t, dc.name+"/"+eng.name, h)

			res := atpg.Generate(d.Circuit, view, targets, atpg.Config{
				Engine: eng.e, MaxBacktracks: 20, RandomSeed: 1, Workers: 1, Metrics: telemetry.NewRegistry(),
			})
			h = sha256.New()
			writeTests(h, res.Tests)
			for _, p := range res.Patterns {
				fmt.Fprintln(h, p)
			}
			fmt.Fprintln(h, res.Detected)
			writeFaults(h, "untestable", res.Untestable)
			writeFaults(h, "aborted", res.Aborted)
			checkDigest(t, dc.name+"/generate-"+eng.name, h)
		}
	}

	// Sequential ATPG runs on the unscanned netlist: every fault is a
	// multi-site fault, one site per unrolled frame.
	c := circuits.Hardcore(16)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	cfg := seqatpg.Config{MaxFrames: 3, MaxBacktracks: 20}
	h := sha256.New()
	for _, f := range cl.Reps {
		r, err := seqatpg.Generate(c, f, cfg)
		fmt.Fprintln(h, f.String(), r.Frames, r.Sequence, err)
	}
	det, depths := seqatpg.CoverageWithinFrames(c, cl.Reps, cfg)
	fmt.Fprintln(h, det, depths)
	checkDigest(t, "hardcore16/seqatpg", h)
}
