// Package compact shrinks test sets. The paper's cost model makes the
// case: tester time scales with pattern count (and test cost with the
// N³ of Eq. 1), so a test set 4× larger than necessary wastes most of
// what a fast generator buys. Replay does the work: reverse-order
// fault simulation keeps only patterns that first-detect something,
// walking last-to-first. It runs on the fault engine's two one-shot
// grading calls: one reverse-order dropping grade, then alternating
// passes over one detail matrix of the survivors. ModeFull also runs
// a set cover over that matrix. Every pipeline keeps a subset of its
// input that detects the same collapsed fault set; ModeFull never
// keeps more patterns than ModeReverse on the same input and seed.
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
	// last-to-first with dropping and only first-detectors survive,
	// then forward and reverse passes over the survivors' detection
	// matrix alternate until one stops shrinking.
	ModeReverse
	// ModeFull replays as ModeReverse does, building the survivors'
	// detection matrix even when the first pass keeps every pattern,
	// then runs a set cover over it (essential patterns, greedy
	// most-new-faults, last-to-first redundancy removal) and keeps the
	// cover when it is strictly smaller. Cubes, when present, ride
	// along with their patterns.
	ModeFull
)

// Enabled reports whether any compaction runs.
func (m Mode) Enabled() bool { return m != ModeOff }

// String names the mode as accepted by the dftc -compact flag.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeReverse:
		return "reverse"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// modeNames lists every accepted -compact spelling, for parse errors
// and did-you-mean suggestions.
var modeNames = []string{"off", "reverse", "full"}

// ParseMode maps a dftc -compact flag value to a Mode. Unknown names
// get a did-you-mean suggestion when an accepted spelling is close,
// mirroring fault.ParseBackend.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "reverse":
		return ModeReverse, nil
	case "full":
		return ModeFull, nil
	case "static", "dynamic":
		return ModeOff, fmt.Errorf("compact: mode %q was removed; use \"full\" (replay, then set cover)", s)
	}
	want := "want off, reverse or full"
	if sug := suggest.Closest(s, modeNames); sug != "" {
		return ModeOff, fmt.Errorf("compact: unknown mode %q (did you mean %q? %s)", s, sug, want)
	}
	return ModeOff, fmt.Errorf("compact: unknown mode %q (%s)", s, want)
}
