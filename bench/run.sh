#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload zoo-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# files, the aot simulator cache) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
