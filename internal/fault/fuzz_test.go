// Fuzz targets live in the external test package so they can use
// fuzzdiff, which imports fault.
package fault_test

import (
	"context"
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
