#!/usr/bin/env bash
# Entry point for BENCHMARK.json's driver: builds atombench from source into
# the checkout's .bench_build directory (build cache and temporary files
# included, so nothing is written outside the checkout) and runs it with the
# driver's arguments. Run from the root of a checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/atombench" -o "$build/atombench" .
exec "$build/atombench" "$@"
