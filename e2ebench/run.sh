#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#   bash e2ebench/run.sh --workload sim-large --seed 1 --seconds 10 --trace 0
# Everything it writes (Go build cache, binary, stores, traces) stays under
# .bench_build/ in the working directory, which must be the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -root "$root" "$@"
