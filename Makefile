# Standard entry points for the DFT toolkit. `make check` is the
# pre-commit gate: build, vet, the full test suite under the race
# detector, and the fuzz and performance smokes.

GO ?= go

.PHONY: all build vet test race check fuzz fuzz-smoke perf-smoke bench clean

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

# perf-smoke runs three end-to-end benchmark workloads for one second
# each: grade (Auto-backend grading of 2k-3.2k-gate netlists on every
# CPU, sharded cpt included, each job re-graded on the serial backend),
# testgen (ATPG with -compact full and advise, every pattern set
# re-graded on the serial backend and every advise plan checked) and
# service (in-process dftd jobs of every kind, each checked against a
# direct library call). It fails unless every job passed its checks.
perf-smoke:
	@for w in grade testgen service; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) && echo "$$out" && \
		echo "$$out" | grep -Eq '"correct": *true' && echo "$$out" | grep -Eq '"failed": *0[,}]' || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem .

clean:
	$(GO) clean ./...
