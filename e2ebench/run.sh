#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g. from the repository root:
#
#   bash e2ebench/run.sh --workload mcl-async --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh compare -base base-results -head head-results
#
# Build cache, binary and run scratch stay under .bench_build/ of the
# current directory (or $CARGO_TARGET_DIR when set).
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/go-tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$TMPDIR"
(cd "$src" && go build -o "$out/e2ebench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/e2ebench" "$@"
fi
exec "$out/e2ebench" -scratch "$out/e2ebench-scratch" "$@"
