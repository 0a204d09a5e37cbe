#!/usr/bin/env bash
# Driver entry point: builds the benchmark into .bench_build/ at the
# repository root (Go build cache, temp files and the binary all stay
# inside the checkout) and runs it with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/femtobench" .)
exec "$build/femtobench" "$@"
