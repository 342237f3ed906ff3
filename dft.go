package dft

import (
	"context"
	"io"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/service"
	"dft/internal/sim"
)

// This file is the public façade over the toolkit's unified surface:
// the implementation lives under internal/, and the aliases below
// re-export exactly the API a downstream adopter needs — circuit
// loading, the design flow, and the sharded fault-simulation engine
// behind Simulate. Everything else stays internal.

// Circuit is a finalized gate-level netlist (see logic.ParseBench).
type Circuit = logic.Circuit

// Fault is a single stuck-at fault site.
type Fault = fault.Fault

// SimOptions configures Simulate; the zero value selects automatic
// backend choice, one worker per CPU, fault dropping and the primary
// view.
type SimOptions = fault.Options

// SimResult reports per-fault detection outcomes and coverage.
type SimResult = fault.Result

// SimBackend selects the fault-simulation algorithm.
type SimBackend = fault.Backend

// SimView names the nets the tester controls and observes.
type SimView = fault.View

// SimEngine is the reusable sharded fault-simulation scheduler behind
// Simulate; construct one with NewSimEngine to amortize per-worker
// simulator state across runs.
type SimEngine = fault.Engine

// Re-exported SimOptions constants.
const (
	BackendAuto     = fault.Auto
	BackendParallel = fault.BackendParallel
	BackendSerial   = fault.BackendSerial
	BackendCPT      = fault.BackendCPT
	WorkersAuto     = fault.WorkersAuto
	DropOn          = fault.DropOn
	DropOff         = fault.DropOff
)

// ParseSimBackend maps a backend name (as accepted by dftc -engine and
// the service options schema) to a SimBackend, with did-you-mean
// suggestions on unknown names.
func ParseSimBackend(s string) (SimBackend, error) {
	return fault.ParseBackend(s)
}

// Simulate fault-simulates the pattern set against the fault list; see
// fault.Simulate. Results are bit-identical for every backend and
// worker count.
func Simulate(ctx context.Context, c *Circuit, faults []Fault, patterns [][]bool, opts SimOptions) (*SimResult, error) {
	return fault.Simulate(ctx, c, faults, patterns, opts)
}

// NewSimEngine prepares a reusable engine for the circuit.
func NewSimEngine(c *Circuit, opts SimOptions) *SimEngine {
	return fault.NewEngine(c, opts)
}

// ReduceMap relates a reduced netlist to its original: per-net images,
// proven constants, and the pass statistics.
type ReduceMap = sim.ReduceMap

// ReduceStats summarizes one netlist reduction pass.
type ReduceStats = sim.ReduceStats

// Reduce returns a smaller, functionally equivalent netlist (constant
// propagation, structural hashing, fanout-free-region collapsing) plus
// the remap table that carries fault sites and views across. The
// interface — PI, PO and flip-flop order and count — is preserved
// exactly.
func Reduce(c *Circuit) (*Circuit, *ReduceMap) {
	return sim.Reduce(c)
}

// FaultUniverse enumerates every uncollapsed stuck-at fault of the
// circuit.
func FaultUniverse(c *Circuit) []Fault {
	return fault.Universe(c)
}

// CompactMode selects the test-set compaction passes; see
// GenerateOptions.CompactMode and ParseCompactMode.
type CompactMode = compact.Mode

// CompactOptions configures CompactPatterns.
type CompactOptions = compact.Options

// CompactStats reports what a compaction run did.
type CompactStats = compact.Stats

// Re-exported CompactMode constants.
const (
	CompactOff     = compact.ModeOff
	CompactReverse = compact.ModeReverse
	CompactFull    = compact.ModeFull
)

// ParseCompactMode maps a mode name (off, reverse or full — as
// accepted by dftc -compact and the service options schema)
// to a CompactMode, with did-you-mean suggestions on unknown names.
func ParseCompactMode(s string) (CompactMode, error) {
	return compact.ParseMode(s)
}

// CompactPatterns compacts a fully-specified pattern set against the
// fault list by reverse-order replay; the kept set detects exactly
// what the input did. See internal/compact for the cube-level entry
// points, reached through GenerateOptions.CompactMode.
func CompactPatterns(ctx context.Context, c *Circuit, faults []Fault, patterns [][]bool, opt CompactOptions) ([][]bool, *CompactStats, error) {
	return compact.Patterns(ctx, c, atpg.PrimaryView(c), faults, patterns, opt)
}

// Design is a circuit moving through the DFT flow.
type Design = core.Design

// GenerateOptions tunes Design.Generate; its Workers field has the
// same meaning as SimOptions.Workers.
type GenerateOptions = core.GenerateOptions

// TestSet is the outcome of test generation.
type TestSet = core.TestSet

// Report summarizes the flow economics for a test set.
type Report = core.Report

// Load parses a .bench document into a Design.
func Load(name string, r io.Reader) (*Design, error) {
	return core.Load(name, r)
}

// LoadString is Load over a string.
func LoadString(name, src string) (*Design, error) {
	return core.LoadString(name, src)
}

// FromCircuit wraps an existing finalized circuit.
func FromCircuit(c *Circuit) *Design {
	return core.FromCircuit(c)
}

// FaultDictionary maps observed failing responses back to candidate
// fault sites: a compact pass/fail dictionary built through the
// sharded engine, with exact lookup, Hamming-ranked truncated lookup,
// adaptive narrowing and a versioned binary encoding.
type FaultDictionary = diagnose.Dictionary

// DiagnoseOptions configures BuildDictionary; the zero value selects
// automatic backend choice and the primary view.
type DiagnoseOptions = diagnose.Options

// DiagnoseCandidate is one ranked suspect from FaultDictionary.Rank.
type DiagnoseCandidate = diagnose.Candidate

// FailSignature is a pass/fail response string over the dictionary's
// pattern set; see ParseFailSignature for the wire form.
type FailSignature = diagnose.Signature

// BuildDictionary fault-simulates every fault against the pattern set
// through the engine and stores the packed per-pattern detect bits.
// Rows are bit-identical for every backend and worker count.
func BuildDictionary(ctx context.Context, c *Circuit, faults []Fault, patterns [][]bool, opts DiagnoseOptions) (*FaultDictionary, error) {
	return diagnose.Build(ctx, c, faults, patterns, opts)
}

// DecodeDictionary reads a dictionary previously written with
// FaultDictionary.Encode, verifying magic, dimensions and checksum;
// call Attach before simulating new evidence against it.
func DecodeDictionary(r io.Reader) (*FaultDictionary, error) {
	return diagnose.Decode(r)
}

// ParseFailSignature parses a tester response string of '0' (pass) and
// '1' (fail) characters, one per applied pattern.
func ParseFailSignature(s string) (FailSignature, error) {
	return diagnose.ParseSignature(s)
}

// ParseFault parses a fault name in the "g12 s-a-0" / "g12.in3 s-a-1"
// form produced by Fault.String; validate against a circuit with
// Fault.Validate.
func ParseFault(s string) (Fault, error) {
	return fault.ParseFault(s)
}

// AdviseOptions configures Advise; the zero value asks for 99% fault
// coverage within a 50% gate-overhead budget in at most 32 steps.
type AdviseOptions = advise.Options

// AdvisePlan is the advisor's machine-readable output: the ordered
// interventions, their coverage/overhead trajectory, and the final
// instrumented netlist (with a materialized scan chain when storage
// elements were scanned).
type AdvisePlan = advise.Plan

// AdviseStep is one applied intervention with its measured effect.
type AdviseStep = advise.Step

// Advise closes the DFT loop on a circuit: probe with bounded
// ATPG/fault simulation, score candidate test points and partial-scan
// conversions by predicted coverage gain per gate of overhead, apply
// the cheapest, and repeat until the coverage target is met or the
// budget is spent. Coverage is monotone non-decreasing step over
// step, and the whole run is a pure function of its seed. On context
// cancellation the partial plan is returned alongside the error.
func Advise(ctx context.Context, c *Circuit, opt AdviseOptions) (*AdvisePlan, error) {
	return advise.Run(ctx, c, opt)
}

// Service is the DFT-as-a-service job server: an http.Handler
// exposing fault simulation, ATPG, fault diagnosis, differential
// fuzzing and closed-loop DFT advising as asynchronous jobs with a
// bounded queue, worker pool, result cache and admission control. It
// is the library form of the dftd daemon.
type Service = service.Server

// ServiceConfig sizes a Service; the zero value is a working
// development configuration.
type ServiceConfig = service.Config

// ServiceJobRequest is the POST /v1/jobs payload accepted by
// Service.Submit and the HTTP surface.
type ServiceJobRequest = service.JobRequest

// NewService starts a job server. Mount it under any http.Server
// (it implements http.Handler) and stop it with Shutdown, which
// drains in-flight jobs and returns a final telemetry report.
func NewService(cfg ServiceConfig) *Service {
	return service.New(cfg)
}
