package fault

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dft/internal/circuits"
	"dft/internal/telemetry"
)

// BenchmarkGradeShapes times the engine alone on the perfbench grade
// workload's job shapes: 2,000- and 3,200-gate random netlists with 64
// inputs, each graded under Auto by 192 patterns without dropping (a
// cpt grade), 384 with dropping (a cpt prefix handing off to PPSFP)
// and an 8-pattern dropping re-grade, at one worker and at
// GOMAXPROCS. It reports fault.sim.events per grade beside the time.
//
// Run: go test -run '^$' -bench BenchmarkGradeShapes ./internal/fault
func BenchmarkGradeShapes(b *testing.B) {
	for _, size := range []int{2000, 3200} {
		c := circuits.RandomCircuit(rand.New(rand.NewSource(1)), 64, size, 32, 4)
		faults := Collapse(c).Reps
		for _, sh := range []struct {
			name     string
			patterns int
			drop     DropMode
		}{
			{"nodrop192", 192, DropOff},
			{"drop384", 384, DropOn},
			{"regrade8", 8, DropOn},
		} {
			pats := PackPatternSet(len(c.PIs), enginePatterns(len(c.PIs), sh.patterns, 5))
			for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("g%d/%s/w%d", size, sh.name, w), func(b *testing.B) {
					reg := telemetry.NewRegistry()
					eng := NewEngine(c, Options{Drop: sh.drop, Workers: w, Metrics: reg, NoProgress: true})
					for i := 0; i < b.N; i++ {
						if _, err := eng.RunPacked(context.Background(), faults, pats); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(reg.Counter("fault.sim.events").Value())/float64(b.N), "events/op")
				})
			}
		}
	}
}
