#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing
# every argument through:
#
#   bash bench/run.sh --workload kv-klocs --seed 42 --seconds 10 --trace 0
#   bash bench/run.sh                  # all seven workloads, untraced
#   bash bench/run.sh -trace 1         # all seven workloads, traced
#
# Everything the build writes (Go build cache, temporary files, the
# binary, span files) stays under .bench_build/ in the repository, and
# the toolchain is never asked to download anything. A tree that lacks
# the simulator module fails the build, so the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
