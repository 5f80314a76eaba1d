#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags
# (--workload, --seed, --seconds, --trace). Run from the repository
# root: bash perfbench/run.sh --workload err-sweep --seed 1 --seconds 10 --trace 0
# The Go build cache, temporary files and the binary all live under
# .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
