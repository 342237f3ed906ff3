package dft

// Façade tests: the public dft-root surface must carry a downstream
// adopter through load → generate → grade without reaching into
// internal/ packages directly.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dft/internal/circuits"
)

func TestFacadeSimulate(t *testing.T) {
	c := circuits.RippleAdder(4)
	faults := FaultUniverse(c)
	rng := rand.New(rand.NewSource(3))
	pats := make([][]bool, 128)
	for i := range pats {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	base, err := Simulate(context.Background(), c, faults, pats, SimOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Coverage() <= 0.5 {
		t.Fatalf("implausible coverage %.3f", base.Coverage())
	}
	for _, opts := range []SimOptions{
		{Backend: BackendParallel, Workers: 4},
		{Backend: BackendSerial},
		{Backend: BackendCPT, Drop: DropOff},
		{Backend: BackendAuto, Workers: WorkersAuto},
	} {
		got, err := Simulate(context.Background(), c, faults, pats, opts)
		if err != nil {
			t.Fatalf("%v: %v", opts.Backend, err)
		}
		if got.NumCaught != base.NumCaught {
			t.Fatalf("%v: caught %d, want %d", opts.Backend, got.NumCaught, base.NumCaught)
		}
		for i := range faults {
			if got.DetectedBy[i] != base.DetectedBy[i] {
				t.Fatalf("%v fault %d: DetectedBy %d, want %d",
					opts.Backend, i, got.DetectedBy[i], base.DetectedBy[i])
			}
		}
	}
}

// trippingContext reports itself cancelled once it has been polled
// more than trip times. It makes "cancelled mid-run" deterministic:
// the engine's first deadline check passes, every later one fails —
// no real timers, no dependence on scheduler latency.
type trippingContext struct {
	context.Context
	mu    sync.Mutex
	calls int
	trip  int
	done  chan struct{}
}

func newTrippingContext(trip int) *trippingContext {
	return &trippingContext{
		Context: context.Background(),
		trip:    trip,
		done:    make(chan struct{}),
	}
}

func (c *trippingContext) Done() <-chan struct{} { return c.done }

func (c *trippingContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls <= c.trip {
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return context.Canceled
}

// TestFacadeCancellation pins the façade's context contract: a
// cancelled context yields a nil result and the context's error —
// whether cancelled before the call or mid-run — and the engine stays
// reusable afterwards.
func TestFacadeCancellation(t *testing.T) {
	c := circuits.Cascade74181(4)
	faults := FaultUniverse(c)
	rng := rand.New(rand.NewSource(7))
	pats := make([][]bool, 512)
	for i := range pats {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	eng := NewSimEngine(c, SimOptions{Drop: DropOff})

	// Already cancelled: no work happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Run(ctx, faults, pats)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run = (%v, %v), want (nil, context.Canceled)", res, err)
	}

	// Cancelled mid-run: the engine polls the context between pattern
	// blocks, so a context that trips after its first poll cancels the
	// run after work has started — deterministically, with no timers.
	res, err = eng.Run(newTrippingContext(1), faults, pats)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = (%v, %v), want (nil, context.Canceled)", res, err)
	}

	// The same engine still completes a clean run.
	res, err = eng.Run(context.Background(), faults, pats)
	if err != nil || res == nil {
		t.Fatalf("post-cancel run = (%v, %v)", res, err)
	}
	if res.Coverage() <= 0.5 {
		t.Fatalf("implausible coverage %.3f after cancellation", res.Coverage())
	}

	// And the one-shot façade entry point follows the same contract.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if res, err := Simulate(ctx, c, faults, pats, SimOptions{}); res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulate with cancelled ctx = (%v, %v)", res, err)
	}
}

func TestFacadeFlow(t *testing.T) {
	d := FromCircuit(circuits.C17())
	ts := d.Generate(GenerateOptions{RandomFirst: 64, Workers: WorkersAuto})
	if ts.Coverage < 1.0 {
		t.Fatalf("C17 coverage %.3f, want 1.0", ts.Coverage)
	}
	if got := d.FaultGrade(ts.Patterns); got < 1.0 {
		t.Fatalf("FaultGrade %.3f, want 1.0", got)
	}
}
