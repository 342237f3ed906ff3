# Standard entry points for the DFT toolkit. `make check` is the
# pre-commit gate: gofmt, build, vet, the full test suite under the
# race detector, the benchmark module's own vet and tests, and the
# fuzz and performance smokes. The gate's steps are defined once, in
# scripts/check.sh; `make check` runs them all in order and each
# target of the same name runs one.

GO ?= go

# SMOKETIME bounds each fuzz target in the gate's fuzz smoke.
SMOKETIME ?= 10s

CHECK_STEPS = fmt build vet race perfbench-check fuzz-smoke perf-smoke

.PHONY: all test check fuzz bench loc clean $(CHECK_STEPS)

all: check

check:
	GO=$(GO) SMOKETIME=$(SMOKETIME) sh scripts/check.sh

$(CHECK_STEPS):
	GO=$(GO) SMOKETIME=$(SMOKETIME) sh scripts/check.sh $@

test:
	$(GO) test ./...

# fuzz runs every coverage-guided differential fuzz target in the tree
# (scripts/fuzz.sh finds each `func Fuzz...` in a *_test.go file): today
# the compiled kernel against the interpreter at every execution width,
# every fault-simulation backend/worker/drop configuration against the
# serial baseline, event-driven PODEM against the whole-circuit
# reference search, and the untrusted decoders (.bench text, dictionary
# files, dftd request bodies). FUZZTIME bounds each target.
FUZZTIME ?= 10s
fuzz:
	sh scripts/fuzz.sh $(FUZZTIME)

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
