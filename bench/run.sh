#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the driver inside the checkout
# (build cache and binaries under .bench_build/, nothing outside the tree)
# and hands it the arguments. The driver builds cmd/elasticd itself and
# reports that time as bench.build_s.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/bin/elasticbench" .)
exec "$out/bin/elasticbench" -root "$root" "$@"
