#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 45 --trace 0
#
# The binary, the Go build cache and any tool state stay under
# .bench_build at the checkout root; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: no Go module at $root to build and measure" >&2
	exit 3
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
