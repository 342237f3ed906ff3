package atpg

import (
	"context"
	"testing"

	"dft/internal/fault"
	"dft/internal/logic"
)

// mustSimView grades faults under an ATPG view through the engine's
// Options surface, failing the test on error.
func mustSimView(t *testing.T, c *logic.Circuit, view View, faults []fault.Fault, pats [][]bool) *fault.Result {
	t.Helper()
	res, err := simView(c, view, faults, pats)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simViewQuick is mustSimView for quick.Check properties, which have
// no *testing.T in scope; engine errors are structural bugs, so panic.
func simViewQuick(c *logic.Circuit, view View, faults []fault.Fault, pats [][]bool) *fault.Result {
	res, err := simView(c, view, faults, pats)
	if err != nil {
		panic(err)
	}
	return res
}

func simView(c *logic.Circuit, view View, faults []fault.Fault, pats [][]bool) (*fault.Result, error) {
	return fault.Simulate(context.Background(), c, faults, pats, fault.Options{
		Backend: fault.BackendParallel,
		View:    view,
	})
}
