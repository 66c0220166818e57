#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Everything the build writes — the binary, Go's
# build cache, module cache, temporary, configuration and telemetry
# directories — stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/cofsbench" .
)
exec "$build/cofsbench" "$@"
