#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash benchmark/run.sh --workload fig7-tree --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh -seed 1 >> runs.jsonl        # all workloads
#   bash benchmark/run.sh -compare A.jsonl B.jsonl
#
# Everything the build and the runs write (Go build cache, temporary files,
# the go command's config and telemetry, the binary, profiles) stays in
# .bench_build at the repository root. The toolchain is the local one:
# nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-path" "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
