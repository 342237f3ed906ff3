package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/service"
	"dft/internal/telemetry"
)

// reportBody is the part of a run report both front ends must agree on.
type reportBody struct {
	Command string         `json:"command"`
	Config  map[string]any `json:"config"`
	Results map[string]any `json:"results"`
}

// submit runs one job on a fresh in-process dftd and returns its
// report body, or the admission error.
func submit(t *testing.T, req service.JobRequest) (reportBody, error) {
	t.Helper()
	srv := service.New(service.Config{Workers: 1, Metrics: telemetry.NewRegistry()})
	defer srv.Shutdown(context.Background())
	j, err := srv.Submit(req)
	if err != nil {
		return reportBody{}, err
	}
	v, err := srv.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone {
		t.Fatalf("dftd %s job: %s (%s)", req.Kind, v.State, v.Error)
	}
	var body reportBody
	if err := json.Unmarshal(v.Report, &body); err != nil {
		t.Fatal(err)
	}
	return body, nil
}

// cliReport runs a dftc subcommand with -json and decodes its report.
func cliReport(t *testing.T, args ...string) reportBody {
	t.Helper()
	out := captureStdout(t, func() error { return run(append(args, "-json")) })
	var body reportBody
	if err := json.Unmarshal([]byte(out), &body); err != nil {
		t.Fatalf("dftc %v: %v\n%s", args, err, out)
	}
	return body
}

// benchFile writes a library circuit for the CLI and returns its path,
// its .bench text for an inline dftd job, and the collapsed faults of
// the parsed netlist both front ends see.
func benchFile(t *testing.T, name string, n int) (string, string, []fault.Fault) {
	t.Helper()
	c, err := circuits.Builtin(name, n)
	if err != nil {
		t.Fatal(err)
	}
	path := writeBench(t, c)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.LoadString(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	return path, string(src), d.Faults()
}

// TestCLIMatchesService is the parity check between the front ends:
// for every jobbed kind, `dftc <kind> -json` and a dftd job with the
// same spec report the same command, config and results.
func TestCLIMatchesService(t *testing.T) {
	alu, aluSrc, _ := benchFile(t, "alu74181", 0)
	c17, c17Src, faults := benchFile(t, "c17", 0)
	inject := faults[3].String()
	cases := []struct {
		name string
		args []string
		req  service.JobRequest
	}{
		{"faultsim", []string{"faultsim", alu, "-patterns", "200", "-seed", "3"},
			service.JobRequest{Kind: service.KindFaultSim, Bench: aluSrc,
				Options: service.Options{Patterns: 200, Seed: 3}}},
		{"atpg", []string{"atpg", alu, "-random", "16", "-seed", "2"},
			service.JobRequest{Kind: service.KindATPG, Bench: aluSrc,
				Options: service.Options{Random: 16, Seed: 2}}},
		{"atpg compacted", []string{"atpg", alu, "-compact", "full", "-seed", "1"},
			service.JobRequest{Kind: service.KindATPG, Bench: aluSrc,
				Options: service.Options{CompactMode: "full", Seed: 1}}},
		{"diagnose inject", []string{"diagnose", c17, "-patterns", "64", "-seed", "1", "-inject", inject},
			service.JobRequest{Kind: service.KindDiagnose, Bench: c17Src,
				Options: service.Options{Patterns: 64, Seed: 1, Inject: inject}}},
		{"diagnose signature", []string{"diagnose", c17, "-patterns", "64", "-seed", "1", "-signature", "0110", "-top", "3"},
			service.JobRequest{Kind: service.KindDiagnose, Bench: c17Src,
				Options: service.Options{Patterns: 64, Seed: 1, Signature: "0110", Top: 3}}},
		{"advise", []string{"advise", "-builtin", "hardcore", "-n", "8", "-seed", "1"},
			service.JobRequest{Kind: service.KindAdvise, Builtin: "hardcore", N: 8,
				Options: service.Options{Seed: 1}}},
		{"fuzz", []string{"fuzz", "-rounds", "3", "-patterns", "16"},
			service.JobRequest{Kind: service.KindFuzz,
				Options: service.Options{Rounds: 3, Patterns: 16}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := submit(t, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			got := cliReport(t, tc.args...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dftc %v reports\n%+v\ndftd reports\n%+v", tc.args, got, want)
			}
		})
	}
}

// runNoPanic is run with a panic turned into an error.
func runNoPanic(args []string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(args)
}

// TestCLIRejectsWhatServiceRejects: out-of-range flags are errors, not
// panics or silent substitutions, and the CLI words each one as dftd
// does for the same value.
func TestCLIRejectsWhatServiceRejects(t *testing.T) {
	c17, c17Src, faults := benchFile(t, "c17", 0)
	inject := faults[0].String()
	cases := []struct {
		name string
		args []string
		req  service.JobRequest
	}{
		{"faultsim negative patterns", []string{"faultsim", c17, "-patterns", "-5"},
			service.JobRequest{Kind: service.KindFaultSim, Bench: c17Src,
				Options: service.Options{Patterns: -5}}},
		{"diagnose negative patterns", []string{"diagnose", c17, "-patterns", "-1", "-inject", inject},
			service.JobRequest{Kind: service.KindDiagnose, Bench: c17Src,
				Options: service.Options{Patterns: -1, Inject: inject}}},
		{"compact negative random", []string{"compact", c17, "-random", "-3"},
			service.JobRequest{Kind: service.KindFaultSim, Bench: c17Src,
				Options: service.Options{Patterns: -3, CompactMode: "reverse"}}},
		{"advise negative budget", []string{"advise", "-builtin", "c17", "-budget", "-1"},
			service.JobRequest{Kind: service.KindAdvise, Builtin: "c17",
				Options: service.Options{Budget: -1}}},
		{"advise target above 1", []string{"advise", "-builtin", "c17", "-target", "2"},
			service.JobRequest{Kind: service.KindAdvise, Builtin: "c17",
				Options: service.Options{Target: 2}}},
		{"inject with signature", []string{"diagnose", c17, "-inject", inject, "-signature", "01"},
			service.JobRequest{Kind: service.KindDiagnose, Bench: c17Src,
				Options: service.Options{Inject: inject, Signature: "01"}}},
		{"atpg compact static", []string{"atpg", c17, "-compact", "static"},
			service.JobRequest{Kind: service.KindATPG, Bench: c17Src,
				Options: service.Options{CompactMode: "static"}}},
		{"atpg compact dynamic", []string{"atpg", c17, "-compact", "dynamic"},
			service.JobRequest{Kind: service.KindATPG, Bench: c17Src,
				Options: service.Options{CompactMode: "dynamic"}}},
		{"compact mode static", []string{"compact", c17, "-mode", "static", "-random", "8"},
			service.JobRequest{Kind: service.KindFaultSim, Bench: c17Src,
				Options: service.Options{Patterns: 8, CompactMode: "static"}}},
		{"compact mode dynamic", []string{"compact", c17, "-mode", "dynamic", "-random", "8"},
			service.JobRequest{Kind: service.KindFaultSim, Bench: c17Src,
				Options: service.Options{Patterns: 8, CompactMode: "dynamic"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cliErr := runNoPanic(tc.args)
			if cliErr == nil || strings.HasPrefix(cliErr.Error(), "panic:") {
				t.Fatalf("dftc %v: err = %v, want a validation error", tc.args, cliErr)
			}
			_, svcErr := submit(t, tc.req)
			if svcErr == nil {
				t.Fatalf("dftd admitted %+v", tc.req.Options)
			}
			if cliErr.Error() != svcErr.Error() {
				t.Fatalf("dftc says %q, dftd says %q", cliErr, svcErr)
			}
		})
	}
}

// TestCLISeedZeroIsSeedOne: seed 0 grades the seed-1 pattern set, as a
// dftd job does, and the report says the seed was substituted.
func TestCLISeedZeroIsSeedOne(t *testing.T) {
	c17, _, _ := benchFile(t, "c17", 0)
	zero := cliReport(t, "faultsim", c17, "-patterns", "8", "-seed", "0")
	one := cliReport(t, "faultsim", c17, "-patterns", "8", "-seed", "1")
	if zero.Results["coverage"] != one.Results["coverage"] {
		t.Fatalf("seed 0 coverage %v, seed 1 coverage %v", zero.Results["coverage"], one.Results["coverage"])
	}
	if zero.Config["seed"] != float64(1) || zero.Config["seed_defaulted"] != true {
		t.Fatalf("seed 0 config = %v, want seed 1 with seed_defaulted", zero.Config)
	}
	if _, ok := one.Config["seed_defaulted"]; ok {
		t.Fatalf("explicit seed 1 reported as defaulted: %v", one.Config)
	}
}

// TestCompactCubeFileFollowsSpecRules: `dftc compact -in` is held to
// the same rules as -random and a dftd job — negative workers are
// refused with the same words, and seed 0 fills X with seed 1 and says
// so.
func TestCompactCubeFileFollowsSpecRules(t *testing.T) {
	c17, _, _ := benchFile(t, "c17", 0)
	dir := t.TempDir()
	cubes := filepath.Join(dir, "cubes.txt")
	if err := os.WriteFile(cubes, []byte("1X0X1\nX1X0X\n0XX11\nXX1X0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	randomErr := runNoPanic([]string{"compact", c17, "-random", "8", "-workers", "-1"})
	cubeErr := runNoPanic([]string{"compact", c17, "-in", cubes, "-workers", "-1"})
	if cubeErr == nil || randomErr == nil || cubeErr.Error() != randomErr.Error() {
		t.Fatalf("-workers -1: -in says %v, -random says %v", cubeErr, randomErr)
	}

	run := func(seed string) (reportBody, string) {
		out := filepath.Join(dir, "kept"+seed+".txt")
		body := cliReport(t, "compact", c17, "-in", cubes, "-mode", "full", "-seed", seed, "-out", out)
		kept, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return body, string(kept)
	}
	zero, keptZero := run("0")
	one, keptOne := run("1")
	if keptZero != keptOne {
		t.Fatalf("seed 0 kept\n%s\nseed 1 kept\n%s", keptZero, keptOne)
	}
	if zero.Config["seed"] != float64(1) || zero.Config["seed_defaulted"] != true {
		t.Fatalf("seed 0 config = %v, want seed 1 with seed_defaulted", zero.Config)
	}
	if _, ok := one.Config["seed_defaulted"]; ok {
		t.Fatalf("explicit seed 1 reported as defaulted: %v", one.Config)
	}
}
