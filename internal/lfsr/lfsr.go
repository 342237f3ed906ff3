// Package lfsr implements linear feedback shift registers — the
// machinery behind Signature Analysis, BILBO and autonomous testing:
// the Fibonacci LFSR and the multiple-input signature register (MISR)
// built on it, the maximal-length tap tables of Peterson & Weldon [8]
// the paper points to, period measurement, and aliasing analysis. It is
// the only place taps are evaluated: the BILBO register and the
// autonomous-test module each run on one MISR.
package lfsr

import (
	"fmt"

	"dft/internal/telemetry"
)

// Batched telemetry on the Default registry. Clock/ClockIn are a few
// nanoseconds each, so single clocks are never counted individually —
// only the stream-level entry points add their clock totals here.
var (
	cClocks         = telemetry.Default().Counter("lfsr.clocks")
	cSignatures     = telemetry.Default().Counter("lfsr.signatures")
	cMISRWords      = telemetry.Default().Counter("lfsr.misr.words")
	cAliasingChecks = telemetry.Default().Counter("lfsr.aliasing.checks")
)

// maximalTaps[n] lists tap positions (1-based, counting from the input
// stage as in the paper's Fig. 7) of a maximal-length LFSR of width n.
// Entries follow the standard primitive-polynomial tables; width 3 with
// taps {2,3} is exactly the register of Fig. 7.
var maximalTaps = map[int][]int{
	1:  {1},
	2:  {1, 2},
	3:  {2, 3},
	4:  {3, 4},
	5:  {3, 5},
	6:  {5, 6},
	7:  {6, 7},
	8:  {4, 5, 6, 8},
	9:  {5, 9},
	10: {7, 10},
	11: {9, 11},
	12: {4, 10, 11, 12},
	13: {8, 11, 12, 13},
	14: {2, 12, 13, 14},
	15: {14, 15},
	16: {4, 13, 15, 16},
	17: {14, 17},
	18: {11, 18},
	19: {14, 17, 18, 19},
	20: {17, 20},
	21: {19, 21},
	22: {21, 22},
	23: {18, 23},
	24: {17, 22, 23, 24},
	25: {22, 25},
	26: {20, 24, 25, 26},
	27: {22, 25, 26, 27},
	28: {25, 28},
	29: {27, 29},
	30: {7, 28, 29, 30},
	31: {28, 31},
	32: {10, 30, 31, 32},
}

// MaximalTaps returns tap positions for a maximal-length register of
// width n (1 ≤ n ≤ 32), consulting the Peterson & Weldon style table.
func MaximalTaps(n int) ([]int, error) {
	t, ok := maximalTaps[n]
	if !ok {
		return nil, fmt.Errorf("lfsr: no maximal tap entry for width %d", n)
	}
	return append([]int(nil), t...), nil
}

// LFSR is a Fibonacci linear feedback shift register. State bit i
// (0-based) is stage Q(i+1) in the paper's drawing; shifting moves each
// stage right (Q1→Q2→…) and feeds the XOR of the tap stages into Q1.
type LFSR struct {
	n     int
	taps  []int // 1-based stage numbers
	state uint64
}

// New creates a Fibonacci LFSR of width n with the given taps.
func New(n int, taps []int) *LFSR {
	if n < 1 || n > 64 {
		panic("lfsr: width out of range")
	}
	for _, t := range taps {
		if t < 1 || t > n {
			panic(fmt.Sprintf("lfsr: tap %d out of range 1..%d", t, n))
		}
	}
	return &LFSR{n: n, taps: append([]int(nil), taps...)}
}

// NewMaximal creates a maximal-length LFSR of width n from the table.
func NewMaximal(n int) *LFSR {
	taps, err := MaximalTaps(n)
	if err != nil {
		panic(err)
	}
	return New(n, taps)
}

// Width returns the register width.
func (l *LFSR) Width() int { return l.n }

// State returns the register contents; bit i of the result is stage
// Q(i+1).
func (l *LFSR) State() uint64 { return l.state }

// SetState loads the register.
func (l *LFSR) SetState(s uint64) {
	l.state = s & l.mask()
}

func (l *LFSR) mask() uint64 {
	if l.n == 64 {
		return ^uint64(0)
	}
	return 1<<uint(l.n) - 1
}

// feedback computes the XOR of the tap stages.
func (l *LFSR) feedback() uint64 {
	var fb uint64
	for _, t := range l.taps {
		fb ^= l.state >> uint(t-1) & 1
	}
	return fb
}

// Clock shifts the register once with serial input 0 beyond the
// feedback: Q1 gets feedback, Qi gets Q(i-1).
func (l *LFSR) Clock() {
	l.ClockIn(0)
}

// ClockIn shifts once, XORing the external bit into the feedback —
// exactly the signature-analyzer configuration of Fig. 8 where the
// probed data stream enters the feedback EXCLUSIVE-OR.
func (l *LFSR) ClockIn(in uint64) {
	fb := l.feedback() ^ (in & 1)
	l.state = (l.state<<1 | fb) & l.mask()
}

// Bit returns stage Qi (1-based).
func (l *LFSR) Bit(i int) uint64 { return l.state >> uint(i-1) & 1 }

// Output returns the last stage Qn, the conventional serial output.
func (l *LFSR) Output() uint64 { return l.Bit(l.n) }

// Sequence clocks the register k times from the current state and
// returns the successive states (after each clock).
func (l *LFSR) Sequence(k int) []uint64 {
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		l.Clock()
		out[i] = l.state
	}
	cClocks.Add(int64(k))
	return out
}

// Period measures the cycle length from the current (nonzero) state,
// up to limit clocks; it returns 0 if no return occurs within limit.
func (l *LFSR) Period(limit int) int {
	start := l.state
	for i := 1; i <= limit; i++ {
		l.Clock()
		if l.state == start {
			cClocks.Add(int64(i))
			return i
		}
	}
	cClocks.Add(int64(limit))
	return 0
}

// Signature compresses a bit stream: the register is cleared, each bit
// clocked in, and the final state returned. This is the signature of
// the paper's Fig. 8: "the remainder of the data stream after division
// by an irreducible polynomial".
func (l *LFSR) Signature(stream []uint64) uint64 {
	l.state = 0
	for _, b := range stream {
		l.ClockIn(b)
	}
	cClocks.Add(int64(len(stream)))
	cSignatures.Inc()
	return l.state
}

// SignatureBits is Signature over a boolean stream.
func (l *LFSR) SignatureBits(stream []bool) uint64 {
	l.state = 0
	for _, b := range stream {
		if b {
			l.ClockIn(1)
		} else {
			l.ClockIn(0)
		}
	}
	cClocks.Add(int64(len(stream)))
	cSignatures.Inc()
	return l.state
}

// MISR is a multiple-input signature register: an LFSR whose stages
// each XOR in one input line per clock. It is the compression mode of
// the BILBO register (Fig. 19(d)) and the autonomous-test module's S
// mode; clocked with a zero word it is their pseudo-random pattern
// generator.
type MISR struct {
	l      *LFSR
	inputs int
}

// NewMISR creates a MISR of width n (taps from the maximal table) with
// the given number of parallel inputs (≤ n).
func NewMISR(n, inputs int) *MISR {
	if inputs > n {
		panic("lfsr: MISR inputs exceed width")
	}
	return &MISR{l: NewMaximal(n), inputs: inputs}
}

// State returns the register contents.
func (m *MISR) State() uint64 { return m.l.State() }

// SetState loads the register.
func (m *MISR) SetState(s uint64) { m.l.SetState(s) }

// Width returns the register width.
func (m *MISR) Width() int { return m.l.n }

// Clock shifts once, XORing word's low bits into the corresponding
// stages (bit i of word into stage Q(i+1)).
func (m *MISR) Clock(word uint64) {
	fb := m.l.feedback()
	mask := uint64(1)<<uint(m.inputs) - 1
	if m.inputs == 64 {
		mask = ^uint64(0)
	}
	m.l.state = ((m.l.state<<1 | fb) ^ (word & mask)) & m.l.mask()
}

// Compress clears the register, clocks in every word, and returns the
// final signature.
func (m *MISR) Compress(words []uint64) uint64 {
	m.l.state = 0
	for _, w := range words {
		m.Clock(w)
	}
	cClocks.Add(int64(len(words)))
	cMISRWords.Add(int64(len(words)))
	cSignatures.Inc()
	return m.l.State()
}

// PackBits packs a latch vector into a state word: bits[i] becomes bit
// i, stage Q(i+1). A nil vector packs to 0.
func PackBits(bits []bool) uint64 {
	var w uint64
	for i, b := range bits {
		if b {
			w |= 1 << uint(i)
		}
	}
	return w
}

// UnpackBits is the inverse of PackBits: the low n bits of w as a
// latch vector.
func UnpackBits(w uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = w>>uint(i)&1 == 1
	}
	return out
}

// AliasingProbability returns the asymptotic probability that a random
// error stream leaves a k-bit signature register unchanged: 2^-k, the
// paper's "with a 16-bit LFSR the probability of detecting one or more
// errors is extremely high".
func AliasingProbability(width int) float64 {
	cAliasingChecks.Inc()
	return 1.0 / float64(uint64(1)<<uint(width))
}
