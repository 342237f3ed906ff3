package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dft/internal/circuits"
	"dft/internal/telemetry"
)

// The fan-out and its cursor deal every index exactly once at every
// worker count, chunk size and range length, and the fan-out returns
// the first error in worker order.
func TestFanOutClaimsEveryIndexOnce(t *testing.T) {
	e := NewEngine(circuits.C17(), Options{Workers: 8, Metrics: telemetry.NewRegistry()})
	for _, w := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			for _, chunk := range []int{chunkSize(n, w, 2), stemChunk} {
				label := fmt.Sprintf("w=%d n=%d chunk=%d", w, n, chunk)
				claims := make([]atomic.Int32, n)
				cur := &cursor{n: n, chunk: chunk}
				err := e.fanOut(w, func(wi int) error {
					for {
						lo, hi, ok := cur.claim()
						if !ok {
							return nil
						}
						for i := lo; i < hi; i++ {
							claims[i].Add(1)
						}
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for i := range claims {
					if got := claims[i].Load(); got != 1 {
						t.Fatalf("%s: index %d claimed %d times", label, i, got)
					}
				}
			}
			// Every worker from first on fails; the fan-out must report
			// the lowest failing worker's error whatever order they finish.
			for first := 0; first < w; first++ {
				errs := make([]error, w)
				for wi := range errs {
					errs[wi] = fmt.Errorf("worker %d", wi)
				}
				var ran atomic.Int32
				err := e.fanOut(w, func(wi int) error {
					ran.Add(1)
					if wi < first {
						return nil
					}
					return errs[wi]
				})
				if !errors.Is(err, errs[first]) || int(ran.Load()) != w {
					t.Fatalf("w=%d first failing worker %d: got %v after %d workers ran", w, first, err, ran.Load())
				}
			}
		}
	}
}

// A one-worker run grades the whole fault list as one chunk: one
// good-machine pass per block, for Run and for RunDetail. Splitting the
// list into chunks would multiply fault.sim.blocks.
func TestSingleWorkerOnePassPerBlock(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	faults := Universe(c)
	pats := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), 200, 4))
	for _, detail := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		e := NewEngine(c, Options{Backend: BackendParallel, Workers: 1, Drop: DropOff, Metrics: reg})
		var err error
		if detail {
			_, err = e.RunDetail(context.Background(), faults, pats)
		} else {
			_, err = e.RunPacked(context.Background(), faults, pats)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, want := reg.Counter("fault.sim.blocks").Value(), int64(pats.NumBlocks()); got != want {
			t.Fatalf("detail=%v: fault.sim.blocks = %d, want %d (one pass per block)", detail, got, want)
		}
	}
}

// Every backend run opens one span named after its timer, and under
// Auto the span's backend attribute is what pickBackend chose, for one
// job of each shape in the DESIGN.md selection table. mult5 has 720
// faults and 80 reconvergent stems, so its whole list passes Auto's
// live ≥ 4 × stems test and 300 faults do not; a dropping grade on
// parallel records how many blocks it ran on cpt before handing off.
func TestAutoRunSpanNamesBackend(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	all := Universe(c)
	stems := len(NewEngine(c, Options{}).topology().stems)
	spans := map[Backend]string{
		BackendSerial:   "fault.sim.serial",
		BackendCPT:      "fault.sim.cpt",
		BackendParallel: "fault.sim.engine",
	}
	for _, tc := range []struct {
		faults, patterns int
		drop             DropMode
		want             Backend
		cptBlocks, ppsfp string // hand-off attributes, "" where none
	}{
		{8, 16, DropOn, BackendSerial, "", ""},
		{len(all), 64, DropOff, BackendCPT, "", ""},
		{len(all), 4, DropOn, BackendCPT, "", ""},
		{300, 64, DropOn, BackendParallel, "0", "1"},
		{len(all), 256, DropOn, BackendParallel, "1", "3"},
		{300, 256, DropOn, BackendParallel, "0", "4"},
	} {

		label := fmt.Sprintf("%d faults × %d patterns drop=%v", tc.faults, tc.patterns, tc.drop)
		if got := pickBackend(tc.faults, tc.patterns, stems, tc.drop == DropOn); got != tc.want {
			t.Fatalf("%s: pickBackend = %v, want %v", label, got, tc.want)
		}
		reg := telemetry.NewRegistry()
		if _, err := Simulate(context.Background(), c, all[:tc.faults], enginePatterns(len(c.PIs), tc.patterns, 6),
			Options{Drop: tc.drop, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		events, _ := reg.Trace().Events()
		var got []telemetry.Event
		for _, ev := range events {
			for _, name := range spans {
				if ev.Name == name {
					got = append(got, ev)
				}
			}
		}
		if len(got) != 1 {
			t.Fatalf("%s: %d backend spans, want 1", label, len(got))
		}
		ev := got[0]
		if ev.Name != spans[tc.want] || ev.Attrs["backend"] != tc.want.String() || ev.Attrs["auto"] != "true" {
			t.Fatalf("%s: span %s backend=%q auto=%q, want %s backend=%q auto=\"true\"",
				label, ev.Name, ev.Attrs["backend"], ev.Attrs["auto"], spans[tc.want], tc.want)
		}
		if ev.Attrs["cpt_blocks"] != tc.cptBlocks || ev.Attrs["ppsfp_blocks"] != tc.ppsfp {
			t.Fatalf("%s: cpt_blocks=%q ppsfp_blocks=%q, want %q and %q",
				label, ev.Attrs["cpt_blocks"], ev.Attrs["ppsfp_blocks"], tc.cptBlocks, tc.ppsfp)
		}
		if n := reg.Snapshot().Timers[ev.Name].Count; n != 1 {
			t.Fatalf("%s: timer %s observed %d times, want 1", label, ev.Name, n)
		}
	}
}
