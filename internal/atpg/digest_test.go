package atpg_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"runtime"
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
// digest: two combinational blocks, a sequential one under LSSD, and a
// small random netlist whose redundant faults exhaust the search, so
// untestable verdicts are pinned too.
var digestCircuits = []struct {
	name string
	c    func() *logic.Circuit
	scan bool
}{
	{"alu74181", circuits.ALU74181, false},
	{"mult8", func() *logic.Circuit { return circuits.ArrayMultiplier(8) }, false},
	{"hardcore16", func() *logic.Circuit { return circuits.Hardcore(16) }, true},
	{"redundant80", func() *logic.Circuit {
		return circuits.RandomCircuit(rand.New(rand.NewSource(3)), 12, 80, 6, 4)
	}, false},
}

// wantDigests holds the SHA-256 of each run's serialized output. Any
// change to the five-valued simulator or the search loops that moves a
// single pattern, cube or verdict changes these.
var wantDigests = map[string]string{
	"alu74181/podem":             "aa496a02465ca52f3cd4e2f2c72ac3e5449520fe5635aba113330fa345851fdf",
	"alu74181/generate-podem":    "e6fd2e54bbfb91f036b67b642f0bdd1cb130c24b8746f6eadc99d9b3f616855a",
	"alu74181/dalg":              "bdf9080d0927cfc83f786985821a43ac722be59a9aa89e69f89f1281db7d1680",
	"alu74181/generate-dalg":     "e0838a04a407447a65321c6d8eb655ffe76ce59a53db0b72493707cbaa21ff55",
	"mult8/podem":                "0d1645c50cfe02a5b840cabd004ab727617ad89bb1634731da749669f8a025ac",
	"mult8/generate-podem":       "d6a8eaefbb55ebbf73bd4a79a1c477536997fc1cc29915b26cf955453cb49a89",
	"mult8/dalg":                 "88f100bf89dfa8e402227997550de1d1f8f87a2f54d603a9558232bec8026468",
	"mult8/generate-dalg":        "be19a9fde16a3dbef6a91762bc53d66b7ed8eeaa356fc50d080f70aa76f28b5b",
	"hardcore16/podem":           "3c33383fb7936b524858dad0f82e24b3c982408c47c3d668657617d85dcb78c9",
	"hardcore16/generate-podem":  "75f7939516b2a9cb448cf116382c44d91abc1287ec4ae1c1a0fc8fbc337774ad",
	"hardcore16/dalg":            "f7ea0676f28e8f976ac3f9e874e428f34f977a8a53bd267fc9b82401158e2eaf",
	"hardcore16/generate-dalg":   "9499d9a078f13ee2345351d3c8e4098c7838f80c2dc3c289e0dddc9db8a11396",
	"hardcore16/seqatpg":         "2edf24a35624679e374d29609e9d9e7aebbad32324e9b9649b87db9e740edbc8",
	"redundant80/podem":          "9a864d1c856b5c1472f2aed80629e528c03a0fbff12dd22284edee0598b3b446",
	"redundant80/generate-podem": "fbb6599871e6c635ee62768920be24e448f96c352a3f23a4597012fdcdf7f1e8",
	"redundant80/dalg":           "125c4de4e319a6399559b0460c54c4d05513594e61d95973a27a0fd2c8d986d5",
	"redundant80/generate-dalg":  "23e299445f48396e70c964d20580caa424fd38bfc73534e191f2130af52c25be",
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

// randomDigestCircuits are the designs whose random-pattern phases are
// pinned by digest.
var randomDigestCircuits = []struct {
	name string
	c    func() *logic.Circuit
}{
	{"alu74181", circuits.ALU74181},
	{"mult8", func() *logic.Circuit { return circuits.ArrayMultiplier(8) }},
}

// wantRandomDigests holds the SHA-256 of each random-pattern run's
// serialized output; every run must give the same bytes at 1 and 2
// workers.
var wantRandomDigests = map[string]string{
	"alu74181/generate-random-first": "02a9e2d4309ceff841c7b707a55b4aa80ffec32e5f75e0b459b74dff3f770b69",
	"alu74181/random":                "634224d5416647b35c755eef19c0e048295e2660195d7089b0dbe7d57dc0bfad",
	"alu74181/weighted":              "2167a088cdf2b4cab7d411cf23ed79696c01b4bd0328631c1daf81b3ed1ad7f7",
	"alu74181/adaptive":              "5c2f531c2226f252a6f55ce876c4fb66dce8bb606a7b9fc7aa84b64b21c99f24",
	"mult8/generate-random-first":    "a2e7c062a4da35686b1d599c96e92490c827cf0e6daa3bbf668a8fc05e4cd606",
	"mult8/random":                   "04e7fafb16b8ae9dc25f0e9243ad606460fa11294fe10e26329f1d230d42395b",
	"mult8/weighted":                 "c1af025b6bd3c9a905ad7dcfc9bbe86f34b118b842483041d43d6da3f0e8806e",
	"mult8/adaptive":                 "d130a74bd2ee22002b8cbfd6ee4089f93ca6686198df31844b56bb8dc94feda2",
}

func writeRandom(h hash.Hash, res *atpg.RandomResult) {
	for _, p := range res.Patterns {
		fmt.Fprintln(h, p)
	}
	fmt.Fprintln(h, res.Applied, res.Coverage, res.Detected)
}

// TestRandomPhaseDigest pins the random-pattern phases: the patterns
// and tests GenerateContext keeps from a RandomFirst phase of 200
// patterns (three full blocks and a partial one) before its PODEM
// top-up, and the kept patterns, applied count, coverage and detections
// of RandomGenerate, WeightedRandomGenerate and AdaptiveRandomGenerate
// over the same budget. The three generators size their engines from
// GOMAXPROCS, so the test sets it to the worker count.
func TestRandomPhaseDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const budget = 200
	for _, dc := range randomDigestCircuits {
		d := digestDesign(t, dc.c, false)
		view, targets := d.View(), d.Faults()
		weights := make([]float64, len(view.Inputs))
		for i := range weights {
			weights[i] = 0.2 + 0.6*float64(i%3)/2
		}
		for _, w := range []int{1, 2} {
			runtime.GOMAXPROCS(w)
			check := func(key string, h hash.Hash) {
				t.Helper()
				got := hex.EncodeToString(h.Sum(nil))
				if want := wantRandomDigests[dc.name+"/"+key]; got != want {
					t.Errorf("%s/%s workers=%d: digest %s, want %s", dc.name, key, w, got, want)
				}
			}

			res, err := atpg.GenerateContext(context.Background(), d.Circuit, view, targets, atpg.Config{
				MaxBacktracks: 20, RandomSeed: 1, RandomFirst: budget, Workers: w, Metrics: telemetry.NewRegistry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			writeTests(h, res.Tests)
			for _, p := range res.Patterns {
				fmt.Fprintln(h, p)
			}
			fmt.Fprintln(h, res.Detected)
			writeFaults(h, "untestable", res.Untestable)
			writeFaults(h, "aborted", res.Aborted)
			check("generate-random-first", h)

			h = sha256.New()
			writeRandom(h, atpg.RandomGenerate(d.Circuit, view, targets, 1, budget, rand.New(rand.NewSource(3))))
			check("random", h)
			h = sha256.New()
			writeRandom(h, atpg.WeightedRandomGenerate(d.Circuit, view, targets, 1, budget, weights, rand.New(rand.NewSource(5))))
			check("weighted", h)
			h = sha256.New()
			writeRandom(h, atpg.AdaptiveRandomGenerate(d.Circuit, view, targets, 1, budget, rand.New(rand.NewSource(7))))
			check("adaptive", h)
		}
	}
}
