#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing its
# arguments on. Run it from the repository root:
#
#   bash benchmark/run.sh --workload scenario_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/ under the
# root: the Go build cache, the toolchain's own config and telemetry
# (XDG_CONFIG_HOME), the binary, temp files and traces.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C benchmark build -o "$out/astro-benchmark" .
exec "$out/astro-benchmark" --work "$out" "$@"
