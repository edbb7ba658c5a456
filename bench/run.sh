#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# with the given arguments, e.g.
#
#   bash bench/run.sh                        # every workload
#   bash bench/run.sh -traced -o out.json    # plus per-layer metrics
#   bash bench/run.sh -workload kv-faults -seed 3 -seconds 20 -trace 0
#
# The build cache, binary, profiles and temporary files all stay under
# .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
