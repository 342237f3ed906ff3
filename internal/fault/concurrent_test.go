package fault

import (
	"context"
	"math/rand"
	"testing"

	"dft/internal/circuits"
)

// TestWorkerCountInvariance pins the engine's sharding contract: the
// result is byte-identical at every worker count, for the fault-axis
// backend (parallel) and the pattern-axis backend (cpt) alike.
func TestWorkerCountInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(5)
	u := Universe(c)
	rng := rand.New(rand.NewSource(8))
	pats := make([][]bool, 200)
	for i := range pats {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	for _, backend := range []Backend{BackendParallel, BackendCPT} {
		seq, err := Simulate(context.Background(), c, u, pats, Options{Backend: backend, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			con, err := Simulate(context.Background(), c, u, pats, Options{Backend: backend, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if con.NumCaught != seq.NumCaught {
				t.Fatalf("%v workers=%d: caught %d vs %d", backend, workers, con.NumCaught, seq.NumCaught)
			}
			for i := range u {
				if con.Detected[i] != seq.Detected[i] || con.DetectedBy[i] != seq.DetectedBy[i] {
					t.Fatalf("%v workers=%d fault %s: (%v,%d) vs (%v,%d)", backend, workers, u[i].Name(c),
						con.Detected[i], con.DetectedBy[i], seq.Detected[i], seq.DetectedBy[i])
				}
			}
		}
	}
}

func TestTinyFaultListManyWorkers(t *testing.T) {
	c := circuits.C17()
	u := Universe(c)[:3]
	pats := [][]bool{{true, true, true, true, true}}
	for _, backend := range []Backend{BackendParallel, BackendCPT} {
		res, err := Simulate(context.Background(), c, u, pats,
			Options{Backend: backend, Workers: 16}) // workers > faults and > patterns
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Detected) != 3 {
			t.Fatalf("%v: result shape wrong", backend)
		}
	}
}

func BenchmarkConcurrentFaultSim(b *testing.B) {
	c := circuits.ArrayMultiplier(8)
	u := Universe(c)
	rng := rand.New(rand.NewSource(8))
	pats := make([][]bool, 256)
	for i := range pats {
		p := make([]bool, len(c.PIs))
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	for _, w := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[w], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(context.Background(), c, u, pats,
					Options{Backend: BackendParallel, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
