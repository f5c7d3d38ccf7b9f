#!/usr/bin/env bash
# Builds the rewriter benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash rwbench/run.sh --workload cold-fleet --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Every file the build writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build),
# and no network access is attempted.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/rwbench" && go build -o "$out/rwbench" .)
exec "$out/rwbench" "$@"
