#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it from the
# checkout's root. Everything the Go toolchain writes (binary, build cache,
# work directories, its telemetry counters) is pointed under .bench_build/,
# so a run touches nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" go build -o "$build/ebrrq-benchmark" .
)
cd "$root"
exec "$build/ebrrq-benchmark" "$@"
