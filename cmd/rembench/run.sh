#!/usr/bin/env bash
# Builds rembench from source and runs it from the repository root:
#
#   bash cmd/rembench/run.sh -workload query_point -seed 1 -seconds 10 -trace 0
#
# Everything the build and the run write stays in .bench_build/ under
# the current directory: the Go build cache, the binary and the WALs.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/cmd/rembench" && go build -o "$build/bin/rembench" .)
exec "$build/bin/rembench" "$@"
