#!/bin/sh
# Runs every fuzz target in the tree for a fixed time each (default
# 10s), so a new `func FuzzXxx` joins `make fuzz`, `make fuzz-smoke`
# and scripts/check.sh without editing any list:
#
#   sh scripts/fuzz.sh 30s
#
# Targets are the `func Fuzz...` declarations in *_test.go files
# outside hidden directories and the separate perfbench module.
set -eu
cd "$(dirname "$0")/.."
fuzztime=${1:-10s}
targets=$(find . -name '*_test.go' ! -path './.*' ! -path './perfbench/*' \
	-exec grep -H -o '^func Fuzz[A-Za-z0-9_]*' {} + | sed 's/:func /:/' | sort)
if [ -z "$targets" ]; then
	echo "no fuzz targets found"
	exit 1
fi
for t in $targets; do
	name=${t#*:}
	dir=$(dirname "${t%%:*}")
	echo "fuzz $name ($dir)"
	go test -run='^$' -fuzz="^$name\$" -fuzztime="$fuzztime" "$dir"
done
