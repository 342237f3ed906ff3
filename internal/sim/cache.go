package sim

import (
	"sync"

	"dft/internal/logic"
	"dft/internal/telemetry"
)

// The program cache maps a finalized *logic.Circuit to its compiled
// Program. Circuits are immutable after Finalize, so identity keying
// is sound. Reads take the lock-free sync.Map path; misses compile
// under a mutex so concurrent first users of one circuit compile it
// once. Eviction is FIFO with a generous cap: workloads like
// syndrome.MakeTestable compile thousands of throwaway trial circuits,
// and without a bound the cache would pin them all.
const programCacheCap = 128

var (
	progCache    sync.Map // *logic.Circuit -> *Program
	progCacheMu  sync.Mutex
	progCacheAge []*logic.Circuit
	gProgCached  = telemetry.Default().Gauge("sim.compile.cached")
)

// CompiledFor returns the cached compiled program for c, compiling on
// first use.
func CompiledFor(c *logic.Circuit) *Program {
	if v, ok := progCache.Load(c); ok {
		return v.(*Program)
	}
	progCacheMu.Lock()
	defer progCacheMu.Unlock()
	if v, ok := progCache.Load(c); ok {
		return v.(*Program)
	}
	p := Compile(c)
	progCache.Store(c, p)
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
	return p
}
