#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments (see neatbench/README.md). Run from the repository root:
#
#   bash neatbench/run.sh --workload web_small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, module cache, tool
# configuration, the binary) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/neatbench" && go build -o "$build/neatbench" .)
exec "$build/neatbench" "$@"
