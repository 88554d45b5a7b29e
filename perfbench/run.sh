#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload replica-read --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, fabric result caches, span files) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
