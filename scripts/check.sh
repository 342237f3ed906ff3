#!/bin/sh
# Pre-commit gate, defined here once: gofmt, build, vet, the full test
# suite under the race detector, the benchmark module's vet and tests,
# and the fuzz and performance smokes. `make check` runs every step;
# `make fmt`, `make build`, `make vet`, `make race`,
# `make perfbench-check`, `make fuzz-smoke` and `make perf-smoke` each
# run the one step of that name.
#
#   sh scripts/check.sh                 # every step, in order
#   sh scripts/check.sh fmt perf-smoke  # the named steps only
#
# GO names the go command (default go); SMOKETIME bounds each fuzz
# target in the fuzz smoke (default 10s).
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
SMOKETIME=${SMOKETIME:-10s}
all="fmt build vet race perfbench-check fuzz-smoke perf-smoke"
for step in ${*:-$all}; do
	case $step in
	fmt)
		# No Go file outside hidden directories (such as build
		# outputs) may need reformatting.
		unformatted=$(find . -name '*.go' ! -path './.*' -exec gofmt -l {} +)
		if [ -n "$unformatted" ]; then
			echo "gofmt needed:"
			echo "$unformatted"
			exit 1
		fi
		;;
	build) $GO build ./... ;;
	vet) $GO vet ./... ;;
	race) $GO test -race ./... ;;
	perfbench-check)
		# The benchmark is a separate Go module that ./... skips: vet
		# it and run its tests, which guard the correctness checks
		# every benchmark run relies on.
		$GO -C perfbench vet ./...
		$GO -C perfbench test ./...
		;;
	fuzz-smoke)
		# Differential-fuzz smoke: SMOKETIME of coverage-guided search
		# per fuzz target in the tree on top of the checked-in seed
		# corpora.
		sh scripts/fuzz.sh "$SMOKETIME"
		;;
	perf-smoke)
		# One second each of the benchmark's grade workload, every job
		# re-graded on the serial backend; its testgen workload, every
		# ATPG pattern set re-graded on the serial backend and every
		# advise plan checked; and its service workload, every dftd job
		# checked against a direct library call. First, one iteration
		# of the compile and kernel benchmarks, so they keep building
		# and running (a few seconds).
		$GO test -run '^$' -bench 'BenchmarkCompile|BenchmarkKernelInterpVsCompiled' -benchtime 1x ./internal/sim .
		for w in grade testgen service; do
			out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0)
			echo "$out"
			echo "$out" | grep -Eq '"correct": *true'
			echo "$out" | grep -Eq '"failed": *0[,}]'
		done
		;;
	*)
		echo "check: unknown step $step (want one of: $all)"
		exit 2
		;;
	esac
done
[ $# -gt 0 ] || echo "check: OK"
