# Standard entry points for the DFT toolkit. `make check` is the
# pre-commit gate: build, vet, the full test suite under the race
# detector, and the fuzz and performance smokes.

GO ?= go

.PHONY: all build vet test race check fuzz fuzz-smoke perf-smoke bench bench-json bench-faultsim bench-sim bench-service bench-compact bench-diagnose bench-advise clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: build vet race fuzz-smoke perf-smoke

# fuzz runs the coverage-guided differential fuzz targets: the compiled
# kernel against the interpreter at every execution width, and every
# fault-simulation backend/worker/drop configuration against the serial
# baseline. FUZZTIME bounds each target.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzBackendEquivalence -fuzztime=$(FUZZTIME) ./internal/fault

# fuzz-smoke is the short differential-fuzz pass that `make check` and
# scripts/check.sh share: same targets as fuzz, bounded by SMOKETIME,
# so the pre-commit gate always replays the seed corpora plus a short
# guided search.
SMOKETIME ?= 10s
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=$(SMOKETIME)

# perf-smoke runs two end-to-end benchmark workloads for one second
# each: grade (Auto-backend grading of 2k-3.2k-gate netlists on every
# CPU, sharded cpt included, each job re-graded on the serial backend)
# and service (in-process dftd jobs of every kind, each checked against
# a direct library call). It fails unless every job passed its checks.
perf-smoke:
	@for w in grade service; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) && echo "$$out" && \
		echo "$$out" | grep -Eq '"correct": *true' && echo "$$out" | grep -Eq '"failed": *0[,}]' || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem .

# bench-json runs the benchmarks and leaves the accumulated telemetry
# as a dft.run-report/v1 document in BENCH_telemetry.json.
bench-json:
	DFT_BENCH_JSON=BENCH_telemetry.json $(GO) test -bench=. -benchmem .

# bench-faultsim measures engine scaling at 1/2/4/8 workers and leaves
# the shard counters as a dft.run-report/v1 document.
bench-faultsim:
	DFT_BENCH_JSON=BENCH_faultsim.json $(GO) test -bench=BenchmarkEngineScaling -benchmem .

# bench-sim measures the interpreted vs compiled good-machine kernels
# (scalar word and blocked) and leaves the kernel counters as a
# dft.run-report/v1 document.
bench-sim:
	DFT_BENCH_JSON=BENCH_simkernel.json $(GO) test -bench=BenchmarkKernelInterpVsCompiled -benchmem .

# bench-service measures job-service overhead and the progress-
# instrumentation ablation (the instrumented engine must stay within
# 2% of the NoProgress run), leaving the telemetry as a
# dft.run-report/v1 document.
bench-service:
	DFT_BENCH_JSON=BENCH_service.json $(GO) test -bench=BenchmarkService -benchmem .

# bench-compact measures test-set compaction on random and
# deterministic workloads (targets: ≥ 4× on a 1024-pattern random set,
# ≥ 1.5× on the classical per-fault deterministic set) and leaves the
# ratios and engine counters as a dft.run-report/v1 document.
bench-compact:
	DFT_BENCH_JSON=BENCH_compact.json $(GO) test -bench=BenchmarkCompact -benchmem .

# bench-diagnose measures fault-dictionary construction: the
# engine-backed build against the legacy serial per-fault loop (target:
# ≥ 4× on the 8×8 multiplier), plus the full-response tier and the
# compacted-input variant, leaving dictionary sizes and the speedup as
# a dft.run-report/v1 document.
bench-diagnose:
	DFT_BENCH_JSON=BENCH_diagnose.json $(GO) test -bench=BenchmarkDiagnose -benchmem .

# bench-advise measures the closed-loop DFT advisor's coverage-vs-
# overhead trade on the hardcore builtin (must climb from a sub-90%
# baseline to the 99% target) and the 74181 ALU (must stop early at
# zero overhead), leaving the trajectory gauges and probe counters as a
# dft.run-report/v1 document.
bench-advise:
	DFT_BENCH_JSON=BENCH_advise.json $(GO) test -bench=BenchmarkAdvise -benchmem .

clean:
	$(GO) clean ./...
	rm -f BENCH_telemetry.json BENCH_faultsim.json BENCH_simkernel.json BENCH_service.json BENCH_compact.json BENCH_diagnose.json BENCH_advise.json
