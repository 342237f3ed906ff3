# Standard entry points for the DFT toolkit. `make check` is the
# pre-commit gate: gofmt, build, vet, the full test suite under the
# race detector, and the fuzz and performance smokes.

GO ?= go

.PHONY: all fmt build vet test race check fuzz fuzz-smoke perf-smoke bench loc clean

all: check

# fmt fails when gofmt would rewrite any Go file, skipping hidden
# directories (such as build outputs) the way loc does.
fmt:
	@out=$$(find . -name '*.go' ! -path './.*' -exec gofmt -l {} +); \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: fmt build vet race fuzz-smoke perf-smoke

# fuzz runs every coverage-guided differential fuzz target in the tree
# (scripts/fuzz.sh finds each `func Fuzz...` in a *_test.go file): today
# the compiled kernel against the interpreter at every execution width,
# every fault-simulation backend/worker/drop configuration against the
# serial baseline, and event-driven PODEM against the whole-circuit
# reference search. FUZZTIME bounds each target.
FUZZTIME ?= 10s
fuzz:
	sh scripts/fuzz.sh $(FUZZTIME)

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

# loc prints the tracked code-size metric: lines of non-test Go outside
# perfbench/ (and outside hidden build directories), per top-level
# directory and in total. Files at the repository root count as ".".
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec wc -l {} + | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = (n > 2) ? p[2] : "."; lines[d] += $$1; t += $$1 } \
		END { for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	$(GO) clean ./...
