package diagnose

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dft/internal/circuits"
	"dft/internal/fault"
	"dft/internal/telemetry"
)

func exhaustive(n int) [][]bool {
	out := make([][]bool, 1<<uint(n))
	for x := range out {
		p := make([]bool, n)
		for i := range p {
			p[i] = x>>uint(i)&1 == 1
		}
		out[x] = p
	}
	return out
}

func randomPatterns(nIn, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, nIn)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

func TestDiagnoseContainsTrueFault(t *testing.T) {
	c := circuits.C17()
	u := fault.Universe(c)
	d, err := Build(context.Background(), c, u, exhaustive(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range u {
		cands := d.Diagnose(f)
		found := false
		for _, cf := range cands {
			if cf == f {
				found = true
			}
		}
		if !found {
			t.Fatalf("true fault %s missing from its own diagnosis", f.Name(c))
		}
	}
}

// TestTrueFaultInCandidatesAcrossEngines is the worker/backend
// invariance property of the dictionary: for every grading backend and
// worker count, the injected fault is always in its own candidate set
// and the rows are byte-identical to the single-worker parallel
// reference.
func TestTrueFaultInCandidatesAcrossEngines(t *testing.T) {
	c := circuits.RippleAdder(3)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := randomPatterns(len(c.PIs), 96, 11)

	ref, err := Build(context.Background(), c, cl.Reps, pats, Options{Backend: fault.BackendParallel, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	backends := []fault.Backend{fault.BackendParallel, fault.BackendCPT}
	for _, be := range backends {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v/w%d", be, w), func(t *testing.T) {
				d, err := Build(context.Background(), c, cl.Reps, pats, Options{Backend: be, Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				for fi := range cl.Reps {
					if !equalRow(d.Row(fi), ref.Row(fi)) {
						t.Fatalf("fault %d row differs from reference", fi)
					}
				}
				for fi, f := range cl.Reps {
					sig, err := d.ObserveMachine(f)
					if err != nil {
						t.Fatal(err)
					}
					hit := false
					for _, ci := range d.Lookup(sig) {
						if ci == fi {
							hit = true
						}
					}
					if !hit {
						t.Fatalf("injected fault %s missing from exact lookup", f.Name(c))
					}
					if r := d.Rank(sig, 1); len(r) == 0 || r[0].Distance != 0 {
						t.Fatalf("injected fault %s: best ranked distance %d, want 0", f.Name(c), r[0].Distance)
					}
				}
			})
		}
	}
}

// TestRankTruncatedSignature: a tester log cut short still ranks the
// true fault at distance 0 over the observed prefix, and the candidate
// list degrades gracefully (it grows, never losing the true fault).
func TestRankTruncatedSignature(t *testing.T) {
	c := circuits.RippleAdder(4)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := randomPatterns(len(c.PIs), 128, 3)
	d, err := Build(context.Background(), c, cl.Reps, pats, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range cl.Reps[:10] {
		full, err := d.ObserveMachine(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{128, 64, 37, 16} {
			trunc := NewSignature(n)
			for p := 0; p < n; p++ {
				if full.Fails(p) {
					trunc.Set(p)
				}
			}
			ranked := d.Rank(trunc, 0)
			pos := -1
			for i, cand := range ranked {
				if cand.Index == fi {
					pos = i
					break
				}
			}
			if pos < 0 {
				t.Fatalf("fault %d absent from full ranking at n=%d", fi, n)
			}
			if ranked[pos].Distance != 0 {
				t.Fatalf("true fault at distance %d under truncation n=%d, want 0", ranked[pos].Distance, n)
			}
		}
	}
}

// TestRankParseSignatureWire exercises the service wire format: a
// signature string round-trips, and a corrupted digit is rejected.
func TestRankParseSignatureWire(t *testing.T) {
	sig := NewSignature(70)
	sig.Set(0)
	sig.Set(63)
	sig.Set(69)
	back, err := ParseSignature(sig.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != sig.String() || back.Weight() != 3 {
		t.Fatalf("round-trip %q != %q", back.String(), sig.String())
	}
	if _, err := ParseSignature("0102"); err == nil {
		t.Fatal("accepted a non-binary signature")
	}
}

// TestDiagnosisClassesMatchEquivalence: with exhaustive patterns,
// structurally equivalent faults must be response-indistinguishable.
func TestDiagnosisClassesMatchEquivalence(t *testing.T) {
	c := circuits.C17()
	u := fault.Universe(c)
	cl := fault.CollapseEquiv(c, u)
	d, err := Build(context.Background(), c, u, exhaustive(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, fi := range u {
		for j, fj := range u {
			if j <= i {
				continue
			}
			if cl.ClassOf[fi] != cl.ClassOf[fj] {
				continue
			}
			if d.DistinguishingPattern(i, j) != -1 {
				t.Fatalf("equivalent faults %s / %s distinguished", fi.Name(c), fj.Name(c))
			}
		}
	}
}

func TestResolutionSummary(t *testing.T) {
	c := circuits.RippleAdder(3)
	u := fault.Universe(c)
	d, err := Build(context.Background(), c, u, exhaustive(len(c.PIs)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Resolution()
	if r.Undetected != 0 {
		t.Fatalf("%d faults invisible to exhaustive patterns on an irredundant adder", r.Undetected)
	}
	if r.Classes == 0 || r.MeanSize < 1 {
		t.Fatalf("degenerate resolution %+v", r)
	}
	if r.MaxSize >= len(u) {
		t.Fatalf("one giant class of %d", r.MaxSize)
	}
	if r.MeanSize > 4 {
		t.Fatalf("mean class size %.2f too coarse", r.MeanSize)
	}
}

// TestFullResponseTier: the per-output tier agrees with the compact
// tier (a pattern fails iff some output word is nonzero) and a
// distinguishing pattern shows differing responses.
func TestFullResponseTier(t *testing.T) {
	c := circuits.C17()
	u := fault.Universe(c)
	d, err := Build(context.Background(), c, u, exhaustive(5), Options{Full: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasFull() {
		t.Fatal("full tier missing")
	}
	for fi := range u {
		for p := 0; p < d.NumPats; p++ {
			any := false
			for _, w := range d.FullResponse(fi, p) {
				if w != 0 {
					any = true
				}
			}
			if any != d.Detects(fi, p) {
				t.Fatalf("fault %d pattern %d: full tier %v, compact tier %v", fi, p, any, d.Detects(fi, p))
			}
		}
	}
	for i := range u {
		for j := i + 1; j < len(u); j++ {
			p := d.DistinguishingPattern(i, j)
			if p < 0 {
				continue
			}
			if d.Detects(i, p) == d.Detects(j, p) {
				t.Fatalf("pattern %d does not distinguish %s / %s", p, u[i].Name(c), u[j].Name(c))
			}
			return
		}
	}
	t.Fatal("no distinguishable pair found")
}

// TestNarrow: adaptive narrowing with a truthful oracle converges to
// the true fault's response class.
func TestNarrow(t *testing.T) {
	c := circuits.RippleAdder(3)
	cl := fault.CollapseEquiv(c, fault.Universe(c))
	pats := randomPatterns(len(c.PIs), 64, 5)
	d, err := Build(context.Background(), c, cl.Reps, pats, Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := cl.Reps[7]
	sig, err := d.ObserveMachine(truth)
	if err != nil {
		t.Fatal(err)
	}
	// Start from a deliberately coarse candidate set: top 10 by rank.
	var cands []int
	for _, cand := range d.Rank(sig, 10) {
		cands = append(cands, cand.Index)
	}
	final, queries := d.Narrow(cands, 0, func(p int) bool { return sig.Fails(p) })
	hit := false
	for _, fi := range final {
		if cl.Reps[fi] == truth {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("true fault eliminated by narrowing (%d queries, %d left)", queries, len(final))
	}
	// Everything left must be response-equivalent to the truth.
	for _, fi := range final[1:] {
		if d.DistinguishingPattern(final[0], fi) != -1 {
			t.Fatalf("narrowed set still distinguishable after %d queries", queries)
		}
	}
}

func TestDictionaryWithRandomPatterns(t *testing.T) {
	c := circuits.RippleAdder(4)
	u := fault.Universe(c)
	d, err := Build(context.Background(), c, u, randomPatterns(len(c.PIs), 32, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Build(context.Background(), c, u, exhaustive(len(c.PIs)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Resolution().Classes > full.Resolution().Classes {
		t.Fatal("fewer patterns cannot give finer resolution")
	}
	for _, f := range u[:20] {
		cands := d.Diagnose(f)
		found := false
		for _, cf := range cands {
			if cf == f {
				found = true
			}
		}
		if !found {
			t.Fatalf("true fault %s missing under random dictionary", f.Name(c))
		}
	}
}

func TestBuildCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	u := fault.Universe(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, c, u, randomPatterns(len(c.PIs), 256, 1), Options{}); err == nil {
		t.Fatal("cancelled build returned no error")
	}
}

// One dictionary serves concurrent device observations: each returns
// the fault's stored row and counts its grade in its own caller's
// registry only.
func TestObserveMachineConcurrentRegistries(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
	d, err := Build(context.Background(), c, faults, randomPatterns(len(c.PIs), 96, 5), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := telemetry.NewRegistry()
			var n int64
			for fi := g; fi < len(faults); fi += callers {
				sig, err := d.ObserveMachine(faults[fi], reg)
				if err != nil {
					t.Error(err)
					return
				}
				if !equalRow(sig.Bits, d.Row(fi)) {
					t.Errorf("caller %d fault %d: observed row differs from the dictionary", g, fi)
					return
				}
				n++
			}
			if got := reg.Counter("fault.sim.detail_runs").Value(); got != n {
				t.Errorf("caller %d: fault.sim.detail_runs = %d for its %d observations", g, got, n)
			}
		}()
	}
	wg.Wait()
}
