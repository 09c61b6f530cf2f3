#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload recall-query --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind — the Go build cache, the
# binary, the engine's scratch directories, a traced run's span file — goes
# under .bench_build in the working directory, which must be the root of
# the repository. Nothing outside it is read or written.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
export TMPDIR="$build/tmp"
go build -o "$build/memex-bench" ./bench
exec "$build/memex-bench" "$@"
