package advise

import (
	"context"

	"dft/internal/atpg"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// viewFor is the advisor's tester model: the primary view until any
// storage element is scanned, then the partial-scan view over the
// scanned subset — scanned elements become controllable inputs and
// their D cones observable outputs.
func viewFor(c *logic.Circuit, scanned []int) atpg.View {
	if len(scanned) == 0 {
		return atpg.PrimaryView(c)
	}
	return atpg.PartialScanView(c, scanned)
}

// probe grades the working netlist under the current view: a bounded
// block of random patterns through a dropping fault.Session, then
// bounded PODEM on a rotating window of still-undetected faults, whose
// tests feed back into the session so collateral detections count.
// Detections accumulate into st.detected, which is never cleared —
// the source of the advisor's monotone-coverage guarantee.
func (st *state) probe(ctx context.Context, seed uint64, opt Options, reg *telemetry.Registry) error {
	defer reg.Timer("advise.probe").Time()()
	view := viewFor(st.work, st.scanned)
	eng := fault.NewEngine(st.work, fault.Options{
		View:    view,
		Workers: opt.Workers,
		Metrics: reg,
	})
	sess := eng.NewSession(st.faults, st.detected)

	rng := seed
	if rng == 0 {
		rng = 1
	}
	width := len(view.Inputs)
	for applied := 0; applied < opt.Patterns; {
		if err := ctx.Err(); err != nil {
			st.recount()
			return err
		}
		n := opt.Patterns - applied
		if n > 64 {
			n = 64
		}
		sess.ApplyBlock(randBlock(width, n, &rng), st.detected)
		applied += n
		reg.Counter("advise.probe.patterns").Add(int64(n))
	}

	// Deterministic top-up: PODEM on up to opt.Probes undetected
	// faults, starting where the previous probe left off so successive
	// iterations sweep the whole list rather than re-proving the same
	// untestable prefix.
	var block [][]bool
	flush := func() {
		if len(block) > 0 {
			sess.ApplyBlock(block, st.detected)
			block = block[:0]
		}
	}
	targets := 0
	searcher := atpg.NewSearcher(st.work, view)
	for seen := 0; seen < len(st.faults) && targets < opt.Probes; seen++ {
		i := (st.cursor + seen) % len(st.faults)
		if st.detected[i] {
			continue
		}
		if err := ctx.Err(); err != nil {
			flush()
			st.recount()
			return err
		}
		targets++
		t, err := searcher.Podem(st.faults[i], atpg.PodemConfig{MaxBacktracks: opt.Backtracks, Metrics: reg})
		switch err {
		case nil:
			block = append(block, t.Bools())
			if len(block) == 64 {
				flush()
			}
		case atpg.ErrUntestable:
			reg.Counter("advise.probe.untestable").Inc()
		case atpg.ErrAborted:
			reg.Counter("advise.probe.aborted").Inc()
		}
	}
	flush()
	if len(st.faults) > 0 {
		st.cursor = (st.cursor + opt.Probes) % len(st.faults)
	}
	reg.Counter("advise.probe.targets").Add(int64(targets))
	st.recount()
	return nil
}

// randBlock generates n patterns of the given width from an xorshift64
// stream, advancing the caller's state in place.
func randBlock(width, n int, s *uint64) [][]bool {
	out := make([][]bool, n)
	x := *s
	for i := range out {
		row := make([]bool, width)
		for j := range row {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			row[j] = x&1 == 1
		}
		out[i] = row
	}
	*s = x
	return out
}
