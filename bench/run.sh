#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload covid-grow --seed 1 --seconds 10 --trace 0
#
# Everything it writes — Go's build cache, the binary, a durable workload's
# store — stays under .bench_build/ in the checkout. bench/ is a module of
# its own (bench/go.mod) that replaces `hydro` with the checkout around it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
export GOPATH="${GOPATH:-$out/gopath}"
go build -C "$here" -o "$out/hydrobench" .
exec "$out/hydrobench" "$@"
