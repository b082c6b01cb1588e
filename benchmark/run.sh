#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there.
# Everything the Go toolchain and the benchmark write — build cache, temporary
# files, data directories, span files — lands under .bench_build at the
# checkout's root, which .gitignore names. Arguments go to the program:
#
#   bash benchmark/run.sh --workload renew_durable --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
export BENCH_TMP=$build/tmp
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
