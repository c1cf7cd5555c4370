#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload <tpcc|serve-chaos|crash-matrix> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
