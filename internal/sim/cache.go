package sim

import (
	"sync"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// The circuit cache maps a finalized *logic.Circuit to its compiled
// Program and its flat Topology, each built on first use. Circuits are
// immutable after Finalize, so identity keying is sound. Reads take the
// lock-free sync.Map path; a miss creates the entry under a mutex, and
// each artifact is built once through its entry's sync.Once, so
// concurrent first users of one circuit build it once. Eviction is FIFO
// with a cap: workloads like syndrome.MakeTestable compile thousands of
// throwaway trial circuits, and a job stream that parses its netlist
// per job leaves a dead circuit per job, so without a bound the cache
// would pin them all. Every entry pins its circuit, program and
// topology, together close to 1 MB for a 3k-gate netlist.
const programCacheCap = 64

// cacheEntry holds what the cache derives from one circuit.
type cacheEntry struct {
	progOnce sync.Once
	prog     *Program
	topoOnce sync.Once
	topo     *Topology
}

var (
	progCache    sync.Map // *logic.Circuit -> *cacheEntry
	progCacheMu  sync.Mutex
	progCacheAge []*logic.Circuit
	gProgCached  = telemetry.Default().Gauge("sim.compile.cached")
)

// entryFor returns c's cache entry, creating (and evicting the oldest
// entry past the cap) on first use.
func entryFor(c *logic.Circuit) *cacheEntry {
	if v, ok := progCache.Load(c); ok {
		return v.(*cacheEntry)
	}
	progCacheMu.Lock()
	defer progCacheMu.Unlock()
	if v, ok := progCache.Load(c); ok {
		return v.(*cacheEntry)
	}
	e := &cacheEntry{}
	progCache.Store(c, e)
	progCacheAge = append(progCacheAge, c)
	if len(progCacheAge) > programCacheCap {
		// Compact in place instead of reslicing the head off: a bare
		// progCacheAge[1:] would keep the evicted circuit (and its
		// program) reachable through the backing array indefinitely.
		progCache.Delete(progCacheAge[0])
		copy(progCacheAge, progCacheAge[1:])
		progCacheAge[len(progCacheAge)-1] = nil
		progCacheAge = progCacheAge[:len(progCacheAge)-1]
	}
	gProgCached.Set(int64(len(progCacheAge)))
	return e
}

// CompiledFor returns the cached compiled program for c, compiling on
// first use.
func CompiledFor(c *logic.Circuit) *Program {
	e := entryFor(c)
	e.progOnce.Do(func() { e.prog = Compile(c) })
	return e.prog
}

// TopologyFor returns the cached flat topology of c, building it on
// first use. The fault engine and PODEM share it.
func TopologyFor(c *logic.Circuit) *Topology {
	e := entryFor(c)
	e.topoOnce.Do(func() { e.topo = newTopology(c) })
	return e.topo
}
