#!/usr/bin/env bash
# Builds the stack benchmark from source and runs it from the checkout root.
# Build cache, binary, WAL directories and trace.json all stay under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local
go build -C "$here" -o "$out/stackbench" .
cd "$root"
exec "$out/stackbench" "$@"
