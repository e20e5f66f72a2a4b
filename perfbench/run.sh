#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload web|ingest|query --seed N --seconds S --trace 0|1
#
# Run from the checkout root. Everything the build and the runs leave
# behind goes under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
