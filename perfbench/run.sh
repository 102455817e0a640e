#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload unsat-emm --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
PERFBENCH_REV=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)
export PERFBENCH_REV
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
