#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root. Everything the Go tool writes — build and module caches, its work
# directory, its telemetry counters — is pointed into the build directory,
# so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
	go build -o "$build/ricsa-benchmark" .
) >&2
cd "$root"
exec "$build/ricsa-benchmark" "$@"
