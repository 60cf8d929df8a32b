#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, temporaries, the
# binary) stays under bench/.build, so a run touches nothing outside the
# checkout. Exits non-zero, printing no result, if the build fails — as
# it must where the rest of the repository is missing.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the toolchain keeps its telemetry counters
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
