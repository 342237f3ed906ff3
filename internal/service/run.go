package service

import (
	"bytes"
	"context"
	"encoding/json"

	"dft/internal/advise"
	"dft/internal/pipeline"
	"dft/internal/telemetry"
)

// execute runs one job under ctx and returns its run report. The
// job's private telemetry registry (created at admission, sampled
// live by the monitor) receives all the work's instruments, so the
// report's metrics section describes exactly this job's work; the
// server's own registry only carries the service.* instruments. The
// root "job" span parents every phase span the kernels open through
// the context, and the report is finished only after it ends, so the
// trace section always contains the complete tree.
func (s *Server) execute(ctx context.Context, j *Job) (*telemetry.Report, error) {
	p, reg := j.parsed, j.reg
	ctx, span := telemetry.StartSpanCtx(ctx, reg, "job")
	span.SetAttr("kind", string(p.req.Kind))
	var rep *telemetry.Report
	var err error
	switch spec := p.spec.(type) {
	case pipeline.FaultSim:
		_, rep, err = spec.Run(ctx, p.circuit, reg)
	case pipeline.ATPG:
		_, rep, err = spec.Run(ctx, p.circuit, reg)
	case pipeline.Diagnose:
		spec.Dictionary = s.dictionary
		_, rep, err = spec.Run(ctx, p.circuit, reg)
	case pipeline.Advise:
		spec.Checkpoint = j.checkpointPlan
		_, rep, err = spec.Run(ctx, p.circuit, reg)
	case pipeline.Fuzz:
		_, rep, err = spec.Run(ctx, p.circuit, reg)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	rep.Tool, rep.Input = "dftd", p.input
	return rep.Finish(reg), nil
}

// encodeReport renders a report as the bytes served to clients and
// stored in the result cache.
func encodeReport(rep *telemetry.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dictionary is the diagnose jobs' pipeline.DictSource: the server's
// dictionary cache. Dictionaries are worker- and backend-invariant,
// so an 8-worker CPT job reuses the one a 1-worker parallel job built,
// and a hit also skips the compaction that shaped the pattern set:
// its stats are cached beside the dictionary. Build runs outside the
// server lock; two racing misses build twice and the second insert
// wins, which is benign (the dictionaries are identical).
func (s *Server) dictionary(key string, build func() (pipeline.DictBuild, error)) (pipeline.DictBuild, bool, error) {
	s.mu.Lock()
	if v, ok := s.dicts.get(key); ok {
		s.mu.Unlock()
		s.cDictHit.Inc()
		return v.(pipeline.DictBuild), true, nil
	}
	s.mu.Unlock()
	s.cDictMiss.Inc()
	b, err := build()
	if err != nil {
		return pipeline.DictBuild{}, false, err
	}
	s.mu.Lock()
	s.dicts.add(key, b)
	s.mu.Unlock()
	return b, false, nil
}

// checkpointPlan is an advise job's per-iteration checkpoint: it
// snapshots the partial plan onto the job, so a cancelled run still
// hands its client everything decided so far.
func (j *Job) checkpointPlan(pl *advise.Plan) {
	// The plan pointer is only valid for this call; retain bytes.
	if enc, err := json.Marshal(partialPlan{
		Schema:  "dft.advise-plan/v1",
		Partial: true,
		Input:   j.parsed.input,
		Plan:    pl,
	}); err == nil {
		j.checkpoint = enc
	}
}

// partialPlan is the report document attached to a cancelled advise
// job: the last checkpointed plan, flagged so clients can tell it from
// a completed run's report.
type partialPlan struct {
	Schema  string       `json:"schema"`
	Partial bool         `json:"partial"`
	Input   string       `json:"input"`
	Plan    *advise.Plan `json:"plan"`
}
