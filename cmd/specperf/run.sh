#!/usr/bin/env bash
# Builds specperf from source and runs it from the current directory, which
# must be the repository root. Everything the build and the run write lands
# under .bench_build/ in that directory; the Go toolchain is used offline.
#
#   bash cmd/specperf/run.sh --workload churn-fig7a --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

(cd cmd/specperf && go build -o "$out/specperf" .)
exec "$out/specperf" "$@"
