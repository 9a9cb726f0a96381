#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Every build product, cache and span
# dump goes under .bench_build/perfbench, so nothing is read or written
# outside the checkout.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build/perfbench
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --span-dir "$out" "$@"
