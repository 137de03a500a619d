#!/usr/bin/env bash
# Builds the host-time benchmark from the sources of this checkout and runs
# it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload micro-track --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, span files) stays under the
# build directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=-mod=mod

# The build output goes to stderr, so a checkout without the simulator
# sources fails here with a non-zero status and prints no result.
go -C perfbench build -o "$build/perfbench" . 1>&2

exec "$build/perfbench" -out "$build/perfbench-out" "$@"
