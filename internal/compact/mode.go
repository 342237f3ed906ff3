// Package compact shrinks test sets. The paper's cost model makes the
// case: tester time scales with pattern count (and test cost with the
// N³ of Eq. 1), so a test set 4× larger than necessary wastes most of
// what a fast generator buys. Three cooperating passes do the work —
// reverse-order fault simulation (keep only patterns that first-detect
// something, walking last-to-first), static compaction (merge
// compatible partially-specified cubes before X-fill), and dynamic
// compaction (grow each deterministic cube toward secondary targets
// inside the generator, driven by atpg.PodemExtend). Every pipeline
// ends with replay, so a compacted set is never larger than its input
// and always detects the same collapsed fault set.
package compact

import (
	"fmt"

	"dft/internal/suggest"
)

// Mode selects which compaction passes run. The zero value is Off.
type Mode int

const (
	// ModeOff disables compaction entirely.
	ModeOff Mode = iota
	// ModeReverse runs reverse-order replay only: patterns are graded
	// last-to-first with dropping and only first-detectors survive.
	ModeReverse
	// ModeStatic merges compatible test cubes before X-fill, then
	// replays. Requires cubes; raw pattern sets fall back to replay.
	ModeStatic
	// ModeDynamic extends each deterministic cube toward secondary
	// targets during generation, then replays the result.
	ModeDynamic
	// ModeFull runs everything: dynamic generation, static merging,
	// reverse replay.
	ModeFull
)

// Enabled reports whether any compaction runs.
func (m Mode) Enabled() bool { return m != ModeOff }

// Dynamic reports whether generation-time cube extension is on; the
// ATPG driver consults it via core.GenerateOptions.
func (m Mode) Dynamic() bool { return m == ModeDynamic || m == ModeFull }

// static reports whether the cube-merging pass runs.
func (m Mode) static() bool { return m == ModeStatic || m == ModeFull }

// String names the mode as accepted by the dftc -compact flag.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeReverse:
		return "reverse"
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// modeNames lists every accepted -compact spelling, for parse errors
// and did-you-mean suggestions.
var modeNames = []string{"off", "reverse", "static", "dynamic", "full"}

// ParseMode maps a dftc -compact flag value to a Mode. Unknown names
// get a did-you-mean suggestion when an accepted spelling is close,
// mirroring fault.ParseBackend.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "reverse":
		return ModeReverse, nil
	case "static":
		return ModeStatic, nil
	case "dynamic":
		return ModeDynamic, nil
	case "full":
		return ModeFull, nil
	}
	want := "want off, reverse, static, dynamic or full"
	if sug := suggest.Closest(s, modeNames); sug != "" {
		return ModeOff, fmt.Errorf("compact: unknown mode %q (did you mean %q? %s)", s, sug, want)
	}
	return ModeOff, fmt.Errorf("compact: unknown mode %q (%s)", s, want)
}
