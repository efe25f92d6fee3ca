#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files all live
# under .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2

PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown) \
	exec "$out/perfbench" "$@"
