#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root, then runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload engine-hiback --seed 1 --seconds 15 --trace 0
#
# The Go build cache and temporary files live under .bench_build/ too, so a
# run writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
