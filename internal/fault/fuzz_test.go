// Fuzz targets live in the external test package so they can use
// fuzzdiff, which imports fault.
package fault_test

import (
	"context"
	"fmt"
	"testing"

	"dft/internal/fault"
	"dft/internal/fuzzdiff"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// backendSeeds is FuzzBackendEquivalence's seed corpus. 116 generates a
// 5-DFF sequential netlist with enough reconvergent stems for the
// matrix's four-worker cpt cells to shard every block, and 142 a large
// tie-heavy combinational one — the shapes that stress the cpt
// observability chain and its stem sharding.
var backendSeeds = []int64{1, 2, 5, 11, 42, -8, 116, 142}

// FuzzBackendEquivalence requires every fault-simulation configuration
// (serial, parallel and cpt backends × workers × drop) to report
// detection outcomes identical to the serial baseline, whose good
// machine runs on the interpreted kernel, on a seed-generated
// circuit's collapsed fault list. The same circuit, faults and
// patterns then go through the dictionary and compaction oracles, so
// the detail schedulers (RunDetail) and compaction's replay on the
// engine's two grading calls are checked at several worker counts too,
// along with the rule that -compact full never keeps more patterns
// than reverse.
//
// Run: go test -fuzz=FuzzBackendEquivalence -fuzztime=10s ./internal/fault
func FuzzBackendEquivalence(f *testing.F) {
	for _, seed := range backendSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		if ds := fuzzdiff.Lint(c); fuzzdiff.HasErrors(ds) {
			t.Fatalf("seed %d: generator emitted invalid netlist: %v", seed, ds)
		}
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := fuzzdiff.RandomPatterns(len(c.PIs), 32, seed^0x6A09E667)
		for _, check := range []func(context.Context, *logic.Circuit, []fault.Fault, [][]bool, int64) (*fuzzdiff.Divergence, error){
			fuzzdiff.CheckBackends, fuzzdiff.CheckDictionary, fuzzdiff.CheckCompaction,
		} {
			d, err := check(context.Background(), c, faults, pats, seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if d != nil {
				t.Fatalf("%s divergence:\n%s", d.Kind, d.Repro())
			}
		}
	})
}

// The seed corpus must reach the sharded cpt path: on at least one
// seed circuit, the four-worker cpt run splits each block's stem flips
// across all four workers.
func TestBackendSeedsShardCPT(t *testing.T) {
	for _, seed := range backendSeeds {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := fuzzdiff.RandomPatterns(len(c.PIs), 32, seed^0x6A09E667)
		reg := telemetry.NewRegistry()
		if _, err := fault.Simulate(context.Background(), c, faults, pats,
			fault.Options{Backend: fault.BackendCPT, Workers: 4, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		events, _ := reg.Trace().Events()
		for _, ev := range events {
			if ev.Name == "fault.sim.cpt" && ev.Attrs["workers"] == "4" {
				return
			}
		}
	}
	t.Fatal("no seed-corpus circuit shards cpt four ways")
}

// The seed corpus must reach the sharded session path: on at least one
// seed circuit, a four-worker ApplyBlock of the fuzz patterns splits
// the block's live faults across more than one worker, as the
// fault.sim.workers gauge the shared fan-out sets records.
func TestBackendSeedsShardSession(t *testing.T) {
	for _, seed := range backendSeeds {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		faults := fault.CollapseEquiv(c, fault.Universe(c)).Reps
		pats := fuzzdiff.RandomPatterns(len(c.PIs), 32, seed^0x6A09E667)
		reg := telemetry.NewRegistry()
		detected := make([]bool, len(faults))
		s := fault.NewEngine(c, fault.Options{Workers: 4, Metrics: reg}).NewSession(faults, detected)
		s.ApplyBlock(pats, detected)
		if reg.Gauge("fault.sim.workers").Value() > 1 {
			return
		}
	}
	t.Fatal("no seed-corpus circuit shards a session block")
}

// firstDetectPatterns is FuzzFirstDetect's pattern set for seed: one
// full block and one partial block of 1 to 63 patterns.
func firstDetectPatterns(width int, seed int64) *fault.PackedPatterns {
	n := 65 + int(uint64(seed)%63)
	return fault.PackPatternSet(width, fuzzdiff.RandomPatterns(width, n, seed^0x3C6EF372))
}

// firstDetectViews returns the generated circuit's primary view and its
// full-scan view: every flip-flop controllable and its D input
// observable.
func firstDetectViews(c *logic.Circuit) []fault.View {
	scan := fault.View{
		Inputs:  append(append([]int(nil), c.PIs...), c.DFFs...),
		Outputs: append([]int(nil), c.POs...),
	}
	for _, d := range c.DFFs {
		scan.Outputs = append(scan.Outputs, c.Gates[d].Fanin[0])
	}
	return []fault.View{{}, scan}
}

// FuzzFirstDetect checks the kernel's detect-only entries against the
// full-word one on a seed-generated circuit, under the primary and the
// full-scan view, for every fault of the universe (stems, branches and
// the flip-flop D pins that collapsing folds away), over one full and
// one partial block. A reference simulator runs only FaultMask, which
// carries every lane to the end of the cone. On a second simulator
// FirstDetect, DetectMask and FlipMask each drop lanes as view outputs
// show them; per fault they run in an order that rotates with the
// fault's index, so each is in turn the call just before a FaultMask.
// The target requires:
//
//   - FirstDetect's word is the lowest bit of FaultMask(f) & mask, and
//     the propagation stopped at that detection: exactly one view
//     output differs from the good machine in the detecting lane;
//   - DetectMask(f, mask) is FaultMask(f) & mask;
//   - FlipMask(n, mask) is (FaultMask(n s-a-0) | FaultMask(n s-a-1)) &
//     mask, with n the fault's gate;
//   - the FaultMask after those calls returns the reference's word and
//     leaves the reference's FaultyWord on every net, so an early stop
//     leaves nothing queued or unrestored behind it.
//
// Run: go test -fuzz=FuzzFirstDetect -fuzztime=10s ./internal/fault
func FuzzFirstDetect(f *testing.F) {
	for _, seed := range backendSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		faults := fault.Universe(c)
		for vi, v := range firstDetectViews(c) {
			in, out := v.Resolve(c)
			pats := firstDetectPatterns(len(in), seed)
			ps := fault.NewParallelSimView(c, in, out)
			ref := fault.NewParallelSimView(c, in, out)
			for bi := 0; bi < pats.NumBlocks(); bi++ {
				words, k := pats.Block(bi)
				ps.LoadPackedBlock(words, k)
				ref.LoadPackedBlock(words, k)
				mask := ^uint64(0) >> uint(64-k)
				for i, fl := range faults {
					where := func() string {
						return fmt.Sprintf("seed %d view %d block %d (%d patterns) fault %v", seed, vi, bi, k, fl)
					}
					stem := fault.Fault{Gate: fl.Gate, Pin: fault.Stem, SA: logic.Zero}
					flip := ref.FaultMask(stem)
					stem.SA = logic.One
					flip = (flip | ref.FaultMask(stem)) & mask
					want := ref.FaultMask(fl)
					checks := []func(){
						func() {
							got := ps.FirstDetect(fl, mask)
							if lowest := want & mask & -(want & mask); got != lowest {
								t.Fatalf("%s: FirstDetect %016x, lowest bit of FaultMask&mask %016x", where(), got, lowest)
							}
							if got == 0 {
								return
							}
							hit := map[int]bool{} // a net can be listed twice, as a PO and a D input
							for _, o := range out {
								if (ps.FaultyWord(o)^ps.GoodWord(o))&got != 0 {
									hit[o] = true
								}
							}
							if len(hit) != 1 {
								t.Fatalf("%s: %d view outputs differ in detecting lane %016x, want 1", where(), len(hit), got)
							}
						},
						func() {
							if got := ps.DetectMask(fl, mask); got != want&mask {
								t.Fatalf("%s: DetectMask %016x, FaultMask&mask %016x", where(), got, want&mask)
							}
						},
						func() {
							if got := ps.FlipMask(fl.Gate, mask); got != flip {
								t.Fatalf("%s: FlipMask(%d) %016x, stuck-at-0|1 FaultMask&mask %016x", where(), fl.Gate, got, flip)
							}
						},
					}
					for j := range checks {
						checks[(i+j)%len(checks)]()
					}
					if full := ps.FaultMask(fl); full != want {
						t.Fatalf("%s: FaultMask %016x after the detect-only calls, reference %016x", where(), full, want)
					}
					sameFaultyWords(t, c, ps, ref, where)
				}
			}
		}
	})
}

// FuzzWideFlip checks cpt's wide stem flip against the one-word kernel
// on a seed-generated circuit, under the primary and the full-scan
// view, for groups of two, three and four blocks whose last block
// holds 1 to 64 patterns. One simulator loads each group side by side
// and flips every net across it, one net after another, once with the
// whole group in care and once with each block alone in care; on every
// block in care the result must be FlipMask(n, mask) on a second
// simulator that loads the block alone, and on every other word it
// must be zero.
//
// Run: go test -fuzz=FuzzWideFlip -fuzztime=10s ./internal/fault
func FuzzWideFlip(f *testing.F) {
	for _, seed := range backendSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		for vi, v := range firstDetectViews(c) {
			in, out := v.Resolve(c)
			for g := 2; g <= 4; g++ {
				n := (g-1)*64 + 1 + int(uint64(seed+int64(g))%64)
				pats := fault.PackPatternSet(len(in), fuzzdiff.RandomPatterns(len(in), n, seed^int64(g)<<32))
				ref := fault.NewParallelSimView(c, in, out)
				want := make([][]uint64, g) // want[j][net]: FlipMask on block j alone
				for j := range want {
					words, k := pats.Block(j)
					ref.LoadPackedBlock(words, k)
					want[j] = make([]uint64, c.NumNets())
					for net := range want[j] {
						want[j][net] = ref.FlipMask(net, ^uint64(0)>>uint(64-k))
					}
				}
				wide := fault.NewParallelSimView(c, in, out)
				masks := wide.LoadWide(pats, 0, g)
				for net := 0; net < c.NumNets(); net++ {
					// The whole group, then each block alone in care.
					for only := -1; only < g; only++ {
						care := masks
						if only >= 0 {
							care = [4]uint64{}
							care[only] = masks[only]
						}
						for j, w := range wide.FlipWide(net, care) {
							exp := uint64(0)
							if j < g && (only < 0 || j == only) {
								exp = want[j][net]
							}
							if w != exp {
								t.Fatalf("seed %d view %d, %d-block group of %d patterns, care %016x: FlipWide(%s) block %d = %016x, want %016x",
									seed, vi, g, n, care, c.NameOf(net), j, w, exp)
							}
						}
					}
				}
			}
		}
	})
}

// sameFaultyWords requires two simulators to hold the same faulty
// machine on every net.
func sameFaultyWords(t *testing.T, c *logic.Circuit, ps, ref *fault.ParallelSim, where func() string) {
	t.Helper()
	for n := 0; n < c.NumNets(); n++ {
		if a, b := ps.FaultyWord(n), ref.FaultyWord(n); a != b {
			t.Fatalf("%s: FaultyWord(%s) %016x, reference %016x", where(), c.NameOf(n), a, b)
		}
	}
}

// The FuzzFirstDetect seed corpus must reach every fault kind the
// kernel injects (stem, gate branch, flip-flop D pin) with a first
// detection in a full and in a partial block.
func TestFirstDetectSeedsReachEveryKind(t *testing.T) {
	reached := map[string]bool{}
	for _, seed := range backendSeeds {
		c := fuzzdiff.Generate(fuzzdiff.ShapeConfig(seed), seed)
		faults := fault.Universe(c)
		for _, v := range firstDetectViews(c) {
			in, out := v.Resolve(c)
			pats := firstDetectPatterns(len(in), seed)
			ps := fault.NewParallelSimView(c, in, out)
			for bi := 0; bi < pats.NumBlocks(); bi++ {
				words, k := pats.Block(bi)
				ps.LoadPackedBlock(words, k)
				for _, fl := range faults {
					if ps.FirstDetect(fl, ^uint64(0)>>uint(64-k)) == 0 {
						continue
					}
					kind := "branch"
					switch {
					case fl.Pin == fault.Stem:
						kind = "stem"
					case c.Gates[fl.Gate].Type == logic.DFF:
						kind = "dff-d"
					}
					reached[fmt.Sprintf("%s/%v", kind, k == 64)] = true
				}
			}
		}
	}
	for _, kind := range []string{"stem", "branch", "dff-d"} {
		for _, full := range []bool{true, false} {
			if key := fmt.Sprintf("%s/%v", kind, full); !reached[key] {
				t.Errorf("no seed detects a %s fault in a %s block", kind, map[bool]string{true: "full", false: "partial"}[full])
			}
		}
	}
}
