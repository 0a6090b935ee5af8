#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark into .bench_build/
# inside the checkout (compiler cache and temp files included, so nothing
# is written outside it) and runs it from the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/encshare-perfbench" .)
cd "$root"
exec "$build/encshare-perfbench" "$@"
