#!/usr/bin/env bash
# Builds the benchmark runner and runs it from the repository root, passing
# every argument on:
#
#   bash benchmark/run.sh --workload theorem1 --seed 0 --seconds 20 --trace 0
#
# The runner builds the programs it drives (apspd, the theorem1 and probe
# workers) from source. Go's build cache, temporary files and the binaries
# stay under .bench_build/ in the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$out/bin/benchmark" .)
exec "$out/bin/benchmark" -bin "$out/bin" -outdir "$out/out" "$@"
