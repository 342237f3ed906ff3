#!/bin/sh
# Pre-commit gate: build, vet, and the full test suite under the race
# detector. Mirrors `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
go test -race ./...
# Differential-fuzz smoke (mirrors `make fuzz-smoke`): 10s per target
# of coverage-guided search for kernel/backend divergences on top of
# the checked-in seed corpora.
go test -run='^$' -fuzz=FuzzKernelEquivalence -fuzztime=10s ./internal/sim
go test -run='^$' -fuzz=FuzzBackendEquivalence -fuzztime=10s ./internal/fault
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
