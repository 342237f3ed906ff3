package dft

// Golden outputs of the callers whose good-machine passes run on the
// compiled kernel: syndrome counts, bridging, CMOS stuck-open and
// transition-fault detection, and the COP random-pattern estimates.
// The expected values match the interpreted reference semantics, with
// flip-flops held at 0 in the fault-model packages' good passes on
// sequential circuits, so any drift in either fails here. Detection
// matrices are pinned by their detected count and an FNV-64a
// fingerprint of the full fault × pattern matrix.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"dft/internal/atpg"
	"dft/internal/bridge"
	"dft/internal/circuits"
	"dft/internal/cmos"
	"dft/internal/compact"
	"dft/internal/delay"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/syndrome"
	"dft/internal/telemetry"
	"dft/internal/testability"
)

// matrix accumulates a fault × pattern detection matrix into a count
// and an FNV-64a fingerprint.
type matrix struct {
	h   hash.Hash64
	hit int
}

func (m *matrix) add(b bool) {
	if m.h == nil {
		m.h = fnv.New64a()
	}
	v := byte('0')
	if b {
		v = '1'
		m.hit++
	}
	m.h.Write([]byte{v})
}

func (m *matrix) String() string {
	return strconv.Itoa(m.hit) + "/" + strconv.FormatUint(m.h.Sum64(), 16)
}

// floatsPrint fingerprints a float slice bit for bit.
func floatsPrint(vs ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func goldenPatterns(rng *rand.Rand, n, k int) [][]bool {
	out := make([][]bool, k)
	for i := range out {
		p := make([]bool, n)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		out[i] = p
	}
	return out
}

func TestGoldenSyndromeCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		want []int
	}{
		{"adder4", circuits.RippleAdder(4), []int{256, 256, 256, 256, 256}},
		{"alu74181", circuits.ALU74181(), []int{8192, 8192, 8192, 8192, 2304, 9440, 9552, 8192}},
		{"mult8", circuits.ArrayMultiplier(8), []int{16384, 24576, 28672, 30720, 31744, 32256, 32512, 32640, 32104, 31790, 31083, 29866, 27726, 24169, 18500, 9918}},
		{"adder10", circuits.RippleAdder(10), []int{1048576, 1048576, 1048576, 1048576, 1048576, 1048576, 1048576, 1048576, 1048576, 1048576, 1048576}},
	} {
		got, _ := syndrome.Syndromes(tc.c)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: syndrome counts %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

func TestGoldenBridging(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		want string
	}{
		{"c17", circuits.C17(), "320/209ac7e92b0b4a9b grade 44/44"},
		{"adder4", circuits.RippleAdder(4), "2860/6333231abbc7d2bf grade 239/240"},
		{"hardcore8", circuits.Hardcore(8), "672/d6c23e28341797c9 grade 113/240"},
	} {
		rng := rand.New(rand.NewSource(1))
		faults := bridge.Universe(tc.c, 1, 120, rng)
		pats := goldenPatterns(rng, len(tc.c.PIs), 24)
		var m matrix
		for _, f := range faults {
			for _, p := range pats {
				m.add(bridge.Detects(tc.c, p, f))
			}
		}
		res := bridge.Grade(tc.c, faults, pats)
		got := m.String() + " grade " + strconv.Itoa(res.Detected) + "/" + strconv.Itoa(res.Total)
		if got != tc.want {
			t.Errorf("%s: bridging %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGoldenCMOSStuckOpen(t *testing.T) {
	c := circuits.C17()
	u := cmos.Universe(c)
	rng := rand.New(rand.NewSource(5))
	var m matrix
	for trial := 0; trial < 8; trial++ {
		pats := goldenPatterns(rng, len(c.PIs), 6)
		for _, f := range u {
			m.add(cmos.DetectsSequence(c, f, pats))
		}
	}
	det, gen := cmos.GradeTwoPattern(c, u, rng)
	got := m.String() + " two-pattern " + strconv.Itoa(det) + "/" + strconv.Itoa(gen)
	if want := "114/8d4731a17251e3f5 two-pattern 24/24"; got != want {
		t.Errorf("c17 stuck-open %q, want %q", got, want)
	}
}

func TestGoldenTransitionFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		want string
	}{
		{"c17", circuits.C17(), "44/66cc62e5a47ce4b7 two-pattern 22/22"},
		{"adder4", circuits.RippleAdder(4), "234/fc9832f874c35881 two-pattern 60/60"},
		{"hardcore8", circuits.Hardcore(8), "144/35d042dbb3082ca7"},
	} {
		rng := rand.New(rand.NewSource(3))
		u := delay.Universe(tc.c)
		pats := goldenPatterns(rng, len(tc.c.PIs), 16)
		var m matrix
		for _, f := range u {
			for i := 0; i+1 < len(pats); i++ {
				m.add(delay.DetectsPair(tc.c, f, pats[i], pats[i+1]))
			}
		}
		got := m.String()
		if len(tc.c.DFFs) == 0 {
			det, gen := delay.GradeTwoPattern(tc.c, u, rng)
			got += " two-pattern " + strconv.Itoa(det) + "/" + strconv.Itoa(gen)
		}
		if got != tc.want {
			t.Errorf("%s: transition %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestGoldenCOP(t *testing.T) {
	cube := make(circuits.Cube, 20)
	for i := range cube {
		cube[i] = 1
	}
	pla := circuits.PLA("andpla", 20, []circuits.Cube{cube}, [][]int{{0}})
	add := circuits.RippleAdder(6)
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		want float64
	}{
		{"pla", pla, 1048576},
		{"adder6", add, 6.6543299191511505},
	} {
		got := testability.ExpectedPatterns(tc.c, fault.CollapseEquiv(tc.c, fault.Universe(tc.c)).Reps, nil)
		if math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: expected patterns %v (%#x), want %v", tc.name, got, math.Float64bits(got), tc.want)
		}
	}

	// Sequential seeding: flip-flops equiprobable in the primary-view
	// estimate, listed sources only in the view-aware one.
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		want string
	}{
		{"counter4", circuits.Counter(4), "f693472d83dae6a5 4d1008579d11fc45 14df548817a2c225"},
		{"fsm", circuits.FSM(), "6e4c085a37d9155a 23de8cdbeed40e88 41da95162455207b"},
		{"hardcore8", circuits.Hardcore(8), "9991a27c5002acdb 96e93e3e5b3809b5 6b30db44b0862b13"},
	} {
		p := testability.SignalProbabilities(tc.c, nil)
		obs := testability.Observabilities(tc.c, p)
		prim := atpg.PrimaryView(tc.c)
		scan := atpg.FullScanView(tc.c)
		pv := testability.ViewCOP(tc.c, prim.Inputs, prim.Outputs)
		sv := testability.ViewCOP(tc.c, scan.Inputs, scan.Outputs)
		got := floatsPrint(p, obs) + " " + floatsPrint(pv.P, pv.Obs) + " " + floatsPrint(sv.P, sv.Obs)
		if got != tc.want {
			t.Errorf("%s: COP fingerprints %q, want %q", tc.name, got, tc.want)
		}
	}
}

// compactionDigests pins the output of reverse-order compaction: the
// kept patterns, the surviving cubes and the Stats fields statsLine
// lists, for
// compact.Result on an ATPG run and compact.Patterns on a random set.
// A refactor of the replay passes must leave each one byte-identical.
var compactionDigests = map[string]string{
	"alu74181x2/result":   "5e002d82551d120a59c7227b7df5fe3ea32ece9a00cebbc32d919e200a48f4ff",
	"alu74181x2/patterns": "8cac8159437b7b46932d7c285bb0061c4a5e06b495d896f84ef4b2f237973246",
	"mult6/result":        "160cb4e5d60d67fb9d88174286a38bb18973712902f01db87d8eed13aba5855f",
	"mult6/patterns":      "63223d5bf855ee9d1339c2a0a59d000830b8ae557774eab9eb7f67b6be140dfe",
	"hardcore8/result":    "1d2b87d8b825bd1bf74013c09d888a4e09b0089bfb6bb30bc8bbb193b462a1a0",
	"hardcore8/patterns":  "490beeb98c3ec38ab0d9a61f386d77cfbb1e9467f2477924517b04cbc91dd915",
	"random/result":       "5170f06413a9dfc69e05d15bc517da49e73898d1c7a8053a7f3065e0e871b370",
	"random/patterns":     "93a4e6aa7e507a703d125a7c65735acb4f4a60d44d17255f81d24d0e5f2db368",
}

func TestCompactionDigest(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		c    *logic.Circuit
		scan bool
	}{
		{"alu74181x2", circuits.Cascade74181(2), false},
		{"mult6", circuits.ArrayMultiplier(6), false},
		{"hardcore8", circuits.Hardcore(8), true},
		{"random", circuits.RandomCircuit(rand.New(rand.NewSource(3)), 12, 80, 6, 4), false},
	} {
		view := atpg.PrimaryView(tc.c)
		if tc.scan {
			view = atpg.FullScanView(tc.c)
		}
		faults := fault.CollapseEquiv(tc.c, fault.Universe(tc.c)).Reps
		opt := compact.Options{Mode: compact.ModeReverse, Seed: 1, Workers: 1, Metrics: telemetry.NewRegistry()}

		gen := atpg.Generate(tc.c, view, faults, atpg.Config{RandomSeed: 1, Workers: 1, Metrics: telemetry.NewRegistry()})
		st, err := compact.Result(ctx, tc.c, view, faults, gen, opt)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i, p := range gen.Patterns {
			fmt.Fprintln(h, p, gen.Tests[i].String())
		}
		fmt.Fprintln(h, statsLine(st))
		checkCompactionDigest(t, tc.name+"/result", h)

		pats := goldenPatterns(rand.New(rand.NewSource(7)), len(view.Inputs), 512)
		kept, st, err := compact.Patterns(ctx, tc.c, view, faults, pats, opt)
		if err != nil {
			t.Fatal(err)
		}
		h = sha256.New()
		for _, p := range kept {
			fmt.Fprintln(h, p)
		}
		fmt.Fprintln(h, statsLine(st))
		checkCompactionDigest(t, tc.name+"/patterns", h)
	}
}

// statsLine names the Stats fields a digest covers, so adding or
// removing an unrelated field does not move the digests.
func statsLine(st *compact.Stats) string {
	return fmt.Sprintf("in=%d out=%d ratio=%v passes=%d detected=%d/%d coverage=%v/%v",
		st.PatternsIn, st.PatternsOut, st.Ratio, st.ReplayPasses,
		st.Detected, st.Detected, st.Coverage, st.Coverage)
}

func checkCompactionDigest(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	if got, want := hex.EncodeToString(h.Sum(nil)), compactionDigests[key]; got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}
