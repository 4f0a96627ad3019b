#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments.
# Everything the build writes (Go's build cache, temporary files, the
# binary) stays in .bench_build at the root of the checkout; the harness
# puts its own scratch data there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench/e2e build -o "$root/.bench_build/dlrm-e2e" .
exec "$root/.bench_build/dlrm-e2e" "$@"
