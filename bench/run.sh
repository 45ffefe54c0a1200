#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload batch-city100k --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write (Go build cache, binary, traces)
# stays under .bench_build/ in the current directory, and the build never
# reaches the network: the benchmark uses the standard library alone.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/dmra-bench" . >&2
exec "$out/dmra-bench" "$@"
