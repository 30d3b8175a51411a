#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache, GOPATH, temporary files and the toolchain's own
# counter files included, so nothing is written outside the checkout) and runs
# it with the given arguments from the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(cd "$here" && GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config" \
  go build -o "$build/digfl-bench" .)
cd "$root"
exec "$build/digfl-bench" "$@"
