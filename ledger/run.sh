#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash ledger/run.sh --workload point-wire --seed 1 --seconds 20 --trace 0
# Every build artefact, temporary file and data directory stays under
# .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C ledger -o "$build/ledger" .
exec "$build/ledger" "$@"
