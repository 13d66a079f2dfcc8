#!/usr/bin/env bash
# Builds the serving benchmark and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh -seed 42                       # all workloads + traced replays
#   bash bench/run.sh --workload point_hot --seed 7 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binaries, generated inputs, span files) stays under .bench_build/ at
# the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

cd "$root/bench"
go build -o "$out/xbench" .
cd "$root"
exec "$out/xbench" "$@"
