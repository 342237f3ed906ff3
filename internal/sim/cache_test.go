package sim

import (
	"fmt"
	"testing"

	"dft/internal/logic"
)

func freshCircuit(i int) *logic.Circuit {
	c := logic.New(fmt.Sprintf("cache_%d", i))
	a := c.AddInput("a")
	b := c.AddInput("b")
	c.MarkOutput(c.AddGate(logic.And, "g", a, b))
	return c.MustFinalize()
}

// TestProgramCacheEviction compiles well past the cache cap and checks
// that the FIFO stays bounded and self-consistent: the sync.Map entry
// count, the age-list length, and the telemetry gauge must all agree
// at the cap, with no stale (nil or evicted) slots left behind.
func TestProgramCacheEviction(t *testing.T) {
	progCacheMu.Lock()
	progCache.Range(func(k, _ any) bool { progCache.Delete(k); return true })
	progCacheAge = nil
	progCacheMu.Unlock()

	const n = 2 * programCacheCap
	for i := 0; i < n; i++ {
		CompiledFor(freshCircuit(i))
	}

	progCacheMu.Lock()
	defer progCacheMu.Unlock()
	mapSize := 0
	progCache.Range(func(_, _ any) bool { mapSize++; return true })
	if mapSize != programCacheCap {
		t.Fatalf("map holds %d entries, want cap %d", mapSize, programCacheCap)
	}
	if len(progCacheAge) != programCacheCap {
		t.Fatalf("age list holds %d entries, want cap %d", len(progCacheAge), programCacheCap)
	}
	if g := gProgCached.Value(); g != int64(programCacheCap) {
		t.Fatalf("gauge reads %d, want %d", g, programCacheCap)
	}
	for i, c := range progCacheAge {
		if c == nil {
			t.Fatalf("age slot %d is nil", i)
		}
		if _, ok := progCache.Load(c); !ok {
			t.Fatalf("age slot %d (%s) missing from map", i, c.Name)
		}
	}
	// The eviction must also have released the backing array's head:
	// the oldest surviving entry is circuit n-cap.
	if want := fmt.Sprintf("cache_%d", n-programCacheCap); progCacheAge[0].Name != want {
		t.Fatalf("oldest survivor is %s, want %s", progCacheAge[0].Name, want)
	}
}
