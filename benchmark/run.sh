#!/usr/bin/env bash
# Builds the benchmark program from the source tree it sits in and runs it
# with the given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload replay-or8 --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# at the root, so the run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/run.sh" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
mkdir -p "$GOTMPDIR" "$out/bin"
go -C "$root/benchmark" build -o "$out/bin/benchmark" .
exec "$out/bin/benchmark" -root "$root" "$@"
