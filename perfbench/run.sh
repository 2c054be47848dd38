#!/usr/bin/env bash
# Builds memsim's benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload psim64-sc1 --seed 1992 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the binary, the Go build cache and snapshot scratch files.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
