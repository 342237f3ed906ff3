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

// TestTopologyFor checks that the cached topology is built once per
// circuit, even under concurrent first use, and flattens the netlist
// faithfully: fanins in pin order, each combinational reader once,
// levels, and positions in c.Order.
func TestTopologyFor(t *testing.T) {
	c := freshCircuit(-1)
	got := make([]*Topology, 8)
	done := make(chan struct{})
	for i := range got {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			CompiledFor(c)
			got[i] = TopologyFor(c)
		}(i)
	}
	for range got {
		<-done
	}
	for i, tp := range got {
		if tp != got[0] {
			t.Fatalf("goroutine %d got a different topology", i)
		}
	}

	c = logic.New("topo")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate(logic.And, "x", a, a, b) // a read on two pins: one reader entry
	q := c.AddDFF("q", x)                   // a sequential reader: not listed
	y := c.AddGate(logic.Or, "y", x, q)
	c.MarkOutput(y)
	c.MustFinalize()
	tp := TopologyFor(c)
	for id, g := range c.Gates {
		fan := tp.Fanins(int32(id))
		if len(fan) != len(g.Fanin) {
			t.Fatalf("%s: %d fanins, want %d", g.Name, len(fan), len(g.Fanin))
		}
		for p, f := range g.Fanin {
			if int(fan[p]) != f {
				t.Fatalf("%s pin %d: fanin %d, want %d", g.Name, p, fan[p], f)
			}
		}
		if int(tp.Level[id]) != c.Level[id] {
			t.Fatalf("%s: level %d, want %d", g.Name, tp.Level[id], c.Level[id])
		}
	}
	wantReaders := map[int][]int32{a: {int32(x)}, b: {int32(x)}, x: {int32(y)}, q: {int32(y)}, y: nil}
	for n, want := range wantReaders {
		if got := tp.ReadersOf(int32(n)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: readers %v, want %v", c.NameOf(n), got, want)
		}
	}
	for p, id := range c.Order {
		if tp.OrderPos[id] != int32(p) {
			t.Fatalf("%s: order position %d, want %d", c.NameOf(id), tp.OrderPos[id], p)
		}
	}
	for _, n := range []int{a, b, q} {
		if tp.OrderPos[n] != -1 {
			t.Fatalf("source %s has order position %d", c.NameOf(n), tp.OrderPos[n])
		}
	}
}
