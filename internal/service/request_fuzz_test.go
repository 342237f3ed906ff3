package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"dft/internal/pipeline"
)

// FuzzParseRequest drives the dftd admission path on arbitrary request
// bodies: the body is decoded as handleSubmit decodes it and handed to
// parseRequest. Nothing may panic, and every request admitted must keep
// each count within its pipeline bound, so no admitted job can size
// its buffers past them.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"faultsim","builtin":"c17","options":{"patterns":64,"workers":2}}`,
		`{"kind":"faultsim","builtin":"alu74181","options":{"patterns":512,"backend":"parallel","drop":"off","compact_mode":"full"}}`,
		`{"kind":"atpg","builtin":"counter","n":4,"options":{"engine":"dalg","random":64,"scan":true}}`,
		`{"kind":"diagnose","builtin":"adder","n":4,"options":{"patterns":32,"inject":"g5 s-a-1","top":3}}`,
		`{"kind":"diagnose","builtin":"c17","options":{"signature":"0101","dict_full":true}}`,
		`{"kind":"advise","builtin":"hardcore","n":8,"options":{"target":0.9,"budget":0.2,"max_steps":4}}`,
		`{"kind":"fuzz","options":{"rounds":3,"patterns":16}}`,
		`{"kind":"faultsim","bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n","options":{"timeout_ms":100}}`,
		`{"kind":"faultsim","builtin":"mult","n":4096}`,
		`{"kind":"faultsim","builtin":"c17","options":{"patterns":1099511627776}}`,
		`{"kind":"fuzz","options":{"rounds":-1}}`,
		`{"kind":"atpg"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxRequestBody {
			return
		}
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		if _, err := parseRequest(req); err != nil {
			return
		}
		o := req.Options
		for _, c := range []struct {
			name   string
			v, max int
		}{
			{"patterns", o.Patterns, pipeline.MaxPatterns},
			{"random", o.Random, pipeline.MaxPatterns},
			{"rounds", o.Rounds, pipeline.MaxRounds},
			{"workers", o.Workers, pipeline.MaxWorkers},
			{"top", o.Top, pipeline.MaxTop},
			{"max_steps", o.MaxSteps, pipeline.MaxAdviseSteps},
		} {
			if c.v < 0 || c.v > c.max {
				t.Fatalf("admitted %s %d outside [0, %d]: %s", c.name, c.v, c.max, body)
			}
		}
	})
}
