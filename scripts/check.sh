#!/bin/sh
# Pre-commit gate: gofmt, build, vet, the full test suite under the
# race detector, the benchmark module's vet and tests, and the fuzz and
# performance smokes. Mirrors `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."
# gofmt gate (mirrors `make fmt`): no Go file outside hidden
# directories may need reformatting.
unformatted=$(find . -name '*.go' ! -path './.*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	exit 1
fi
go build ./...
go vet ./...
go test -race ./...
# The benchmark is a separate Go module that ./... skips (mirrors
# `make perfbench-check`): vet it and run its tests, which guard the
# correctness checks every benchmark run relies on.
go -C perfbench vet ./...
go -C perfbench test ./...
# Differential-fuzz smoke (mirrors `make fuzz-smoke`): 10s of
# coverage-guided search per fuzz target in the tree (today: kernel,
# backend and PODEM-kernel divergences) on top of the checked-in seed
# corpora.
sh scripts/fuzz.sh 10s
# Performance smoke (mirrors `make perf-smoke`): one second each of
# the benchmark's grade workload, every job re-graded on the serial
# backend; its testgen workload, every ATPG pattern set re-graded on
# the serial backend and every advise plan checked; and its service
# workload, every dftd job checked against a direct library call.
for w in grade testgen service; do
	out=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0)
	echo "$out"
	echo "$out" | grep -Eq '"correct": *true'
	echo "$out" | grep -Eq '"failed": *0[,}]'
done
echo "check: OK"
