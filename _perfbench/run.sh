#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash _perfbench/run.sh --workload sim-rubis --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, the binary, any
# trace files and the go command's own state (GOPATH, telemetry and env
# files under the config directory) stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/_perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
