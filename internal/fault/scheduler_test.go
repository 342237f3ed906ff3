package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// Every Auto grade opens one span named after its timer, whose
// backend attribute names the backend that ran, and which records the
// decision's inputs: stems, cpt_blocks and ppsfp_blocks. mult5 has 720
// faults and 80 reconvergent stems, so its whole list passes Auto's
// live ≥ 4 × stems test and 300 faults do not; a dropping grade on
// parallel records how many blocks it ran on cpt before handing off.
func TestAutoRunSpanNamesBackend(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	all := Universe(c)
	for _, tc := range []struct {
		faults, patterns int
		drop             DropMode
		want             Backend
		cptBlocks, ppsfp string
	}{
		{8, 16, DropOn, BackendParallel, "0", "1"},
		{len(all), 64, DropOff, BackendCPT, "1", "0"},
		{len(all), 4, DropOn, BackendCPT, "1", "0"},
		{300, 64, DropOn, BackendParallel, "0", "1"},
		{len(all), 256, DropOn, BackendParallel, "1", "3"},
		{300, 256, DropOn, BackendParallel, "0", "4"},
		{300, 256, DropOff, BackendParallel, "0", "4"},
		{len(all), 256, DropOff, BackendCPT, "4", "0"},
	} {
		label := fmt.Sprintf("%d faults × %d patterns drop=%v", tc.faults, tc.patterns, tc.drop)
		ev := autoSpan(t, c, all[:tc.faults], tc.patterns, tc.drop, false)
		if ev.Name != backendSpans[tc.want] || ev.Attrs["backend"] != tc.want.String() || ev.Attrs["auto"] != "true" {
			t.Fatalf("%s: span %s backend=%q auto=%q, want %s backend=%q auto=\"true\"",
				label, ev.Name, ev.Attrs["backend"], ev.Attrs["auto"], backendSpans[tc.want], tc.want)
		}
		if ev.Attrs["stems"] != "80" || ev.Attrs["cpt_blocks"] != tc.cptBlocks || ev.Attrs["ppsfp_blocks"] != tc.ppsfp {
			t.Fatalf("%s: stems=%q cpt_blocks=%q ppsfp_blocks=%q, want 80, %q and %q",
				label, ev.Attrs["stems"], ev.Attrs["cpt_blocks"], ev.Attrs["ppsfp_blocks"], tc.cptBlocks, tc.ppsfp)
		}
	}
}

// A panic in a spawned worker does not end the process: the worker
// stops alone, the others finish, and fanOut re-panics on the calling
// goroutine with the worker's value and its own stack.
func TestFanOutWorkerPanic(t *testing.T) {
	e := NewEngine(circuits.C17(), Options{Metrics: telemetry.NewRegistry()})
	var finished [3]atomic.Bool
	var r any
	func() {
		defer func() { r = recover() }()
		e.fanOut(3, func(wi int) error {
			if wi == 2 {
				panicInWorker()
			}
			finished[wi].Store(true)
			return nil
		})
	}()
	p, ok := r.(*workerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *workerPanic", r, r)
	}
	if p.worker != 2 || p.value != "boom" {
		t.Fatalf("worker %d value %v, want worker 2 value boom", p.worker, p.value)
	}
	if !strings.Contains(string(p.stack), "panicInWorker") || !strings.Contains(fmt.Sprint(p), "panicInWorker") {
		t.Fatalf("worker stack does not show the panicking frame:\n%s", p.stack)
	}
	if !finished[0].Load() || !finished[1].Load() || finished[2].Load() {
		t.Fatalf("finished = %v, want slots 0 and 1 only", []bool{finished[0].Load(), finished[1].Load(), finished[2].Load()})
	}
}

//go:noinline
func panicInWorker() { panic("boom") }
