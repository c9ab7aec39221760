#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the arguments given.
# The go command's cache, configuration and telemetry counters are pointed
# into .bench_build/ too, so nothing is written outside the checkout. A
# second call finds the binary up to date and only runs it.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
unset XDG_CONFIG_HOME XDG_CACHE_HOME
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
