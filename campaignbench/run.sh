#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it sits in and runs
# one workload in a fresh process. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload classic --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache and temporary files, the binary,
# checkpoint scratch space and the span dumps of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/campaignbench"
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOENV=off

(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" -workdir "$out/work" "$@"
