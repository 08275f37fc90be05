#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# binary. Everything the build leaves behind — the Go build cache included —
# lands in .bench_build/ at the root of the checkout, which .gitignore names.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/specqp-bench" .)
cd "$(dirname "$here")"
exec "$build/specqp-bench" "$@"
