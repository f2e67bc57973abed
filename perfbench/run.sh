#!/usr/bin/env bash
# Builds irsd, irsrouter and the benchmark driver from this checkout, then
# runs one benchmark workload. Run it from the root of the repository:
#
#	bash perfbench/run.sh --workload wide-draw --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, data
# directories) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/irsd" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/irsd not found)" >&2
	exit 2
fi
go build -o "$out/bin/" ./cmd/irsd ./cmd/irsrouter
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
