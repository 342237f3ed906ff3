package telemetry

import (
	"encoding/json"
	"io"
	"time"
)

// ReportSchema identifies the run-report JSON layout. Consumers (such
// as perfbench's service workload, which reads every dftd job report
// back through ParseReport) should check it before parsing and
// tolerate unknown fields.
const ReportSchema = "dft.run-report/v1"

// Report is the machine-readable record of one toolkit run: what was
// run, on which input, with which configuration, what came out, and
// the full metrics snapshot. It is the payload of the CLI's -json
// flags and the schema benchmark trajectories consume.
type Report struct {
	Schema  string `json:"schema"`
	Tool    string `json:"tool"`              // "dftc", "bench", ...
	Command string `json:"command,omitempty"` // subcommand or workload name
	Input   string `json:"input,omitempty"`   // circuit file or generator
	UnixNs  int64  `json:"unix_ns,omitempty"` // report creation time

	// Config holds the effective run configuration (flag values,
	// seeds, engine choices); Results holds the headline outcomes
	// (coverage, pattern counts, phase durations). Both are free-form
	// but keys should be lower_snake_case and value types JSON-native.
	Config  map[string]any `json:"config,omitempty"`
	Results map[string]any `json:"results,omitempty"`

	Metrics Snapshot `json:"metrics"`

	// Trace is the hierarchical view of Metrics.Events: the completed
	// spans nested by parent ID. Filled by Finish; redundant with
	// Metrics.Events but shaped for consumers (the daemon's /trace
	// endpoint, trajectory tooling) that want the tree directly.
	Trace []*SpanNode `json:"trace,omitempty"`
}

// NewReport starts a report for the given tool/command/input with the
// schema and timestamp filled in.
func NewReport(tool, command, input string) *Report {
	return &Report{
		Schema:  ReportSchema,
		Tool:    tool,
		Command: command,
		Input:   input,
		UnixNs:  time.Now().UnixNano(),
		Config:  map[string]any{},
		Results: map[string]any{},
	}
}

// Finish captures the registry into the report and returns it, so a
// run can end with `return rep.Finish(reg).WriteJSON(os.Stdout)`.
func (rep *Report) Finish(r *Registry) *Report {
	rep.Metrics = r.Snapshot()
	rep.Trace = BuildSpanTree(rep.Metrics.Events)
	return rep
}

// WriteJSON writes the report as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ParseReport decodes a report and verifies the schema marker.
func ParseReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema != ReportSchema {
		return nil, &SchemaError{Got: rep.Schema}
	}
	return &rep, nil
}

// SchemaError reports an unexpected report schema.
type SchemaError struct {
	Got string
}

func (e *SchemaError) Error() string {
	return "telemetry: unexpected report schema " + e.Got + " (want " + ReportSchema + ")"
}
