#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags. Everything Go writes (build cache, temp files, binaries) goes
# under .bench_build/ at the repo root, so a run touches nothing outside
# the checkout and needs no HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
