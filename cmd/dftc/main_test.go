package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// writeBench materializes a library circuit for CLI runs.
func writeBench(t *testing.T, c *logic.Circuit) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), c.Name+".bench")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := logic.WriteBench(f, c); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", runErr, out)
	}
	return out
}

// TestATPGJSONReport is the golden test for `dftc atpg -json`: the
// report must parse under the versioned schema and carry nonzero
// search and fault-simulation telemetry.
func TestATPGJSONReport(t *testing.T) {
	telemetry.Default().Reset()
	bench := writeBench(t, circuits.ALU74181())
	out := captureStdout(t, func() error {
		return run([]string{"atpg", bench, "-json", "-stats"})
	})
	rep, err := telemetry.ParseReport([]byte(out))
	if err != nil {
		t.Fatalf("ParseReport: %v\noutput:\n%s", err, out)
	}
	if rep.Tool != "dftc" || rep.Command != "atpg" || rep.Input != bench {
		t.Fatalf("report header = %q/%q/%q", rep.Tool, rep.Command, rep.Input)
	}
	if rep.Config["engine"] != "podem" {
		t.Fatalf("config engine = %v", rep.Config["engine"])
	}
	cov, ok := rep.Results["coverage"].(float64)
	if !ok || cov <= 0.9 {
		t.Fatalf("coverage = %v, want > 0.9", rep.Results["coverage"])
	}
	c := rep.Metrics.Counters
	for _, name := range []string{
		"atpg.backtracks",
		"atpg.podem.decisions",
		"atpg.faults.detected",
		"fault.sim.events",
		"fault.sim.patterns",
	} {
		if c[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, c[name])
		}
	}
	gen, ok := rep.Metrics.Timers["atpg.generate"]
	if !ok || gen.Count != 1 || gen.TotalNs <= 0 {
		t.Fatalf("atpg.generate timer = %+v", gen)
	}
}

// TestProfileJSONReport exercises the profile subcommand end to end.
func TestProfileJSONReport(t *testing.T) {
	telemetry.Default().Reset()
	bench := writeBench(t, circuits.C17())
	out := captureStdout(t, func() error {
		return run([]string{"profile", bench, "-json"})
	})
	rep, err := telemetry.ParseReport([]byte(out))
	if err != nil {
		t.Fatalf("ParseReport: %v\noutput:\n%s", err, out)
	}
	for _, phase := range []string{"load", "scoap", "faultsim", "atpg-podem", "atpg-dalg", "compact", "signature"} {
		ns, ok := rep.Results["phase_"+phase+"_ns"].(float64)
		if !ok || ns <= 0 {
			t.Errorf("phase %s duration = %v, want > 0", phase, rep.Results["phase_"+phase+"_ns"])
		}
		if _, ok := rep.Metrics.Timers["profile."+phase]; !ok {
			t.Errorf("missing span timer profile.%s", phase)
		}
	}
}

// TestUnknownSubcommandSuggests checks the did-you-mean path.
func TestUnknownSubcommandSuggests(t *testing.T) {
	err := run([]string{"atgp"})
	if err == nil || !strings.Contains(err.Error(), `did you mean "atpg"`) {
		t.Fatalf("err = %v, want atpg suggestion", err)
	}
	if err := run([]string{"zzzzqq"}); err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("err = %v, want no suggestion for gibberish", err)
	}
}

// TestStatsFlagStripping ensures -stats is accepted anywhere.
func TestStatsFlagStripping(t *testing.T) {
	args, stats := stripStatsFlag([]string{"-stats", "atpg", "f.bench", "--stats"})
	if !stats || len(args) != 2 || args[0] != "atpg" || args[1] != "f.bench" {
		t.Fatalf("stripStatsFlag = %v, %v", args, stats)
	}
	if _, stats := stripStatsFlag([]string{"atpg"}); stats {
		t.Fatal("phantom -stats")
	}
}

// TestFuzzJSONReport runs a short differential-fuzz sweep through the
// CLI and checks the run report: zero divergences on a clean tree and
// round accounting that matches the request.
func TestFuzzJSONReport(t *testing.T) {
	telemetry.Default().Reset()
	out := captureStdout(t, func() error {
		return run([]string{"fuzz", "-rounds", "6", "-patterns", "24", "-json"})
	})
	rep, err := telemetry.ParseReport([]byte(out))
	if err != nil {
		t.Fatalf("ParseReport: %v\noutput:\n%s", err, out)
	}
	if rep.Tool != "dftc" || rep.Command != "fuzz" {
		t.Fatalf("report header = %q/%q", rep.Tool, rep.Command)
	}
	if got := rep.Results["divergences"].(float64); got != 0 {
		t.Fatalf("divergences = %v, want 0\noutput:\n%s", got, out)
	}
	if got := rep.Results["rounds"].(float64); got != 6 {
		t.Fatalf("rounds = %v, want 6", got)
	}
	c := rep.Metrics.Counters
	if c["fuzz.rounds"] != 6 || c["fuzz.divergences"] != 0 {
		t.Fatalf("telemetry counters: rounds=%d divergences=%d", c["fuzz.rounds"], c["fuzz.divergences"])
	}
}

// TestFuzzSeedList covers the -seeds replay path and flag validation.
func TestFuzzSeedList(t *testing.T) {
	telemetry.Default().Reset()
	out := captureStdout(t, func() error {
		return run([]string{"fuzz", "-seeds", "3, 9,42", "-patterns", "16"})
	})
	if !strings.Contains(out, "3 rounds") || !strings.Contains(out, "0 divergences") {
		t.Fatalf("unexpected fuzz output: %s", out)
	}
	if err := run([]string{"fuzz", "-seeds", "3,x"}); err == nil || !strings.Contains(err.Error(), "bad seed") {
		t.Fatalf("err = %v, want bad-seed error", err)
	}
	if err := run([]string{"fuzz", "-rounds", "0"}); err == nil || !strings.Contains(err.Error(), "-rounds") {
		t.Fatalf("err = %v, want rounds validation error", err)
	}
}

// TestBadKernelFlagExits checks that a deleted backend name makes the
// CLI fail with the list of backends that remain, instead of silently
// running the default, and that the removed -kernel flag is refused.
func TestBadKernelFlagExits(t *testing.T) {
	bench := writeBench(t, circuits.C17())
	for _, cmd := range []string{"faultsim", "diagnose"} {
		err := run([]string{cmd, bench, "-engine", "faultparallel"})
		if err == nil || !strings.Contains(err.Error(), "want auto, parallel, cpt or serial") {
			t.Fatalf("%s: err = %v, want the remaining backends listed", cmd, err)
		}
	}
	for _, cmd := range []string{"faultsim", "atpg"} {
		if err := run([]string{cmd, bench, "-kernel", "compiled"}); err == nil {
			t.Fatalf("%s: -kernel still accepted", cmd)
		}
	}
}

// TestTimeoutFlagAborts puts a microscopic -timeout on a large circuit:
// both subcommands must exit non-zero with a message naming the flag
// and the context error rather than running to completion.
func TestTimeoutFlagAborts(t *testing.T) {
	bench := writeBench(t, circuits.Cascade74181(4))
	for _, cmd := range []string{"atpg", "faultsim"} {
		err := run([]string{cmd, bench, "-timeout", "1ns"})
		if err == nil {
			t.Fatalf("%s: ran to completion under a 1ns deadline", cmd)
		}
		if !strings.Contains(err.Error(), "-timeout") ||
			!strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
			t.Fatalf("%s: err = %v, want -timeout + deadline-exceeded message", cmd, err)
		}
	}
}

// TestTimeoutFlagZeroRuns checks the default (no limit) still works.
func TestTimeoutFlagZeroRuns(t *testing.T) {
	bench := writeBench(t, circuits.C17())
	out := captureStdout(t, func() error {
		return run([]string{"faultsim", bench, "-patterns", "64", "-timeout", "0s"})
	})
	if !strings.Contains(out, "coverage") {
		t.Fatalf("faultsim output missing coverage: %s", out)
	}
}

// TestInfoPrintsLintWarnings feeds a .bench with a dangling net through
// the CLI and expects the shared linter's warning in the output.
func TestInfoPrintsLintWarnings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dangle.bench")
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ndead = NOT(a)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return run([]string{"info", path}) })
	if !strings.Contains(out, "dangling-net") || !strings.Contains(out, `"dead"`) {
		t.Fatalf("info output missing dangling-net warning:\n%s", out)
	}
}

// TestLoadRejectsInvalidBench: a structurally broken netlist (2-input
// NOT) is rejected by the parser, with its file and line.
func TestLoadRejectsInvalidBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bench")
	src := "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"info", path})
	if err == nil || !strings.Contains(err.Error(), `bad.bench:4: NOT "y" has 2 inputs, want exactly one`) {
		t.Fatalf("err = %v, want fanin-width rejection", err)
	}
}
