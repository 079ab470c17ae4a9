#!/usr/bin/env bash
# Builds harmonyd and the benchmark harness into .bench_build/ at the root
# of the checkout, then runs the harness with the given arguments. Every file
# the build and the run write — Go's build cache included — stays under
# .bench_build/, which .gitignore names.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/harmonyd" ./cmd/harmonyd
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" -harmonyd "$build/bin/harmonyd" -workdir "$build/tmp" "$@"
