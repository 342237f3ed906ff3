package pipeline

import (
	"context"
	"testing"

	"dft/internal/circuits"
	"dft/internal/telemetry"
)

// A dictionary cached by one job counts the device observations of a
// later job into that later job's registry, never into the registry of
// the job that built it.
func TestCachedDictionaryCountsInCallingJob(t *testing.T) {
	var cached *DictBuild
	src := func(_ string, build func() (DictBuild, error)) (DictBuild, bool, error) {
		if cached != nil {
			return *cached, true, nil
		}
		b, err := build()
		cached = &b
		return b, false, err
	}
	spec := Diagnose{Inject: "g20 s-a-0", Workers: 1, Dictionary: src}
	c := circuits.ArrayMultiplier(4)
	runs := func(reg *telemetry.Registry) int64 { return reg.Counter("fault.sim.detail_runs").Value() }

	reg1 := telemetry.NewRegistry()
	if _, _, err := spec.Run(context.Background(), c, reg1); err != nil {
		t.Fatal(err)
	}
	built := runs(reg1)
	reg2 := telemetry.NewRegistry()
	res, _, err := spec.Run(context.Background(), c, reg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed.N == 0 {
		t.Fatal("second job observed no patterns")
	}
	if got := runs(reg1); got != built {
		t.Errorf("first job's fault.sim.detail_runs moved from %d to %d during the second job", built, got)
	}
	if got := runs(reg2); got != 1 {
		t.Errorf("second job's fault.sim.detail_runs = %d, want 1 (its one observation)", got)
	}
}
