package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/logic"
	"dft/internal/pipeline"
	"dft/internal/telemetry"
)

// cmdCompact compacts a test set against a circuit without rerunning
// generation: either cubes read from a file in 01X notation (one per
// line, width = view inputs, X-filled from -seed) or a seeded random
// set (-random N). -mode reverse replays the set; -mode full also runs
// a set cover over the replay's detection matrix and keeps it when
// smaller. The kept fully-specified patterns are written one per line
// as 01 strings.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	modeFlag := fs.String("mode", "reverse", "compaction mode: reverse or full")
	in := fs.String("in", "", "read 01X test cubes from this file (- = stdin)")
	random := fs.Int("random", 0, "compact a seeded random set of N patterns instead")
	seed := fs.Int64("seed", pipeline.DefaultSeed, "random seed (pattern generation and X-fill)")
	scan := fs.Bool("scan", false, "assume full scan (LSSD view)")
	workers := fs.Int("workers", 0, "fault-sharding workers (0 = all CPUs)")
	timeout := fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable run report")
	outFile := fs.String("out", "", "write kept patterns here instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("compact needs one .bench file")
	}
	// A random set is the faultsim job with compaction on; a cube file
	// is held to the same rules.
	spec := pipeline.FaultSim{
		Patterns: *random, Seed: *seed, Scan: *scan, CompactMode: *modeFlag, Workers: *workers,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	mode, _ := compact.ParseMode(*modeFlag) // checked by Validate
	if !mode.Enabled() {
		return fmt.Errorf("compact: -mode off does nothing; pick reverse or full")
	}
	if (*in == "") == (*random == 0) {
		return fmt.Errorf("compact needs exactly one input: -in cubes.txt or -random N")
	}
	d, err := loadDesign(fs.Arg(0))
	if err != nil {
		return err
	}
	ctx, cancel := timeoutContext(*timeout)
	defer cancel()

	var kept [][]bool
	var st *compact.Stats
	var targets int
	if *in == "" {
		out, _, err := spec.Run(ctx, d.Circuit, telemetry.Default())
		if err != nil {
			return err
		}
		kept, st, targets = out.KeptPatterns, out.Compaction, out.Targets
	} else {
		if *scan {
			if err := d.ApplyScan(core.StyleLSSD); err != nil {
				return err
			}
		}
		view := d.View()
		faults := d.Faults()
		cubes, err := readCubes(*in, len(view.Inputs))
		if err != nil {
			return err
		}
		kept, _, st, err = compact.Tests(ctx, d.Circuit, view, faults, cubes,
			compact.Options{Mode: mode, Workers: *workers, Seed: cmp.Or(*seed, pipeline.DefaultSeed)})
		if err != nil {
			return err
		}
		targets = len(faults)
	}

	if *jsonOut {
		rep := telemetry.NewReport("dftc", "compact", fs.Arg(0))
		rep.Config = pipeline.Seeded(*seed, map[string]any{
			"mode": mode.String(), "in": *in, "random": *random,
			"scan": *scan, "workers": *workers,
		})
		rep.Results = map[string]any{
			"patterns_in":   st.PatternsIn,
			"patterns_out":  st.PatternsOut,
			"compact_ratio": st.Ratio,
			"replay_passes": st.ReplayPasses,
			"coverage_in":   st.CoverageIn,
			"coverage_out":  st.CoverageOut,
			"targets":       targets,
		}
		if err := rep.Finish(telemetry.Default()).WriteJSON(os.Stdout); err != nil {
			return err
		}
		return writePatterns(*outFile, kept, false)
	}
	fmt.Fprintln(os.Stderr, compactSummary(st))
	return writePatterns(*outFile, kept, *outFile == "")
}

// compactSummary is the one-line account of a compaction run that
// atpg and compact print.
func compactSummary(st *compact.Stats) string {
	return fmt.Sprintf("compact   : patterns %d -> %d (%.1fx, %d replay passes), coverage unchanged",
		st.PatternsIn, st.PatternsOut, st.Ratio, st.ReplayPasses)
}

// readCubes parses one test cube per line in 01X notation; blank lines
// and #-comments are skipped.
func readCubes(path string, width int) ([]atpg.Test, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var cubes []atpg.Test
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if len(s) != width {
			return nil, fmt.Errorf("compact: line %d: cube width %d, view has %d inputs", line, len(s), width)
		}
		vals := make([]logic.V, width)
		for i := 0; i < width; i++ {
			switch s[i] {
			case '0':
				vals[i] = logic.Zero
			case '1':
				vals[i] = logic.One
			case 'x', 'X':
				vals[i] = logic.X
			default:
				return nil, fmt.Errorf("compact: line %d: bad cube character %q (want 0, 1 or X)", line, s[i])
			}
		}
		cubes = append(cubes, atpg.Test{Values: vals})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cubes) == 0 {
		return nil, fmt.Errorf("compact: no cubes in %s", path)
	}
	return cubes, nil
}

// writePatterns emits the kept patterns one per line as 01 strings —
// to path when given, to stdout when toStdout is set, or not at all
// (the -json case with no -out, where the report owns stdout).
func writePatterns(path string, pats [][]bool, toStdout bool) error {
	var w io.Writer
	switch {
	case path != "":
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	case toStdout:
		w = os.Stdout
	default:
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, p := range pats {
		for _, b := range p {
			if b {
				bw.WriteByte('1')
			} else {
				bw.WriteByte('0')
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
