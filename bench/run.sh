#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# Everything the Go toolchain writes stays inside that directory.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$here" -o "$out/retail-bench" .
exec "$out/retail-bench" "$@"
