#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Run from the root of a checkout. Every build product and the Go build
# cache live under .bench_build/ in that checkout, and the network is never
# consulted (the module has no dependencies outside the repository).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
