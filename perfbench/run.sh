#!/usr/bin/env bash
# Builds the benchmark and cmd/paserve from source, then runs one workload:
#
#   bash perfbench/run.sh --workload reproduce --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that root (Go build cache included), and build output goes
# to stderr so the last line of stdout is the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ must both be present)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/out" "$build/tmp" "$build/gopath" "$build/config"
# The Go toolchain also writes its telemetry and reads its env file under
# the user config directory; point that into the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/paserve" pasp/cmd/paserve
) >&2
exec "$build/bin/perfbench" -root "$root" -paserve "$build/bin/paserve" -out "$build/out" "$@"
