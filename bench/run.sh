#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root, e.g.
#   bash bench/run.sh --workload fig7-sweep --seed 42 --seconds 10 --trace 0
# The binary, the Go build cache and Go's other state files go under
# .bench_build/ in the working directory, so nothing is written elsewhere
# and no module is fetched.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$out/adhocsim-bench" .
exec "$out/adhocsim-bench" "$@"
