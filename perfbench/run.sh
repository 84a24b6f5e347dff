#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload scan-uniform --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's span file stay under
# .bench_build/ in the checkout. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -spans-dir "$out" "$@"
