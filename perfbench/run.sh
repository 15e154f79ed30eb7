#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-short --seed 1 --seconds 15 --trace 0
#
# Build output, the Go caches, journals and trace files all stay under
# .bench_build/ in the working directory. The module needs nothing but the
# standard library and the repository itself, so nothing is downloaded.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
