#!/usr/bin/env bash
# Builds rfpbench from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload full-mem --seed 0 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ there: the Go build cache, temporary files and
# the Go command's own per-user state.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/rfpbench" ./cmd/rfpbench
exec "$out/rfpbench" "$@"
