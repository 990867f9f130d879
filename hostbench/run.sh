#!/usr/bin/env bash
# Builds the host-cost benchmark from the checkout's sources and runs it
# from the checkout root, passing every argument through, e.g.
#
#   hostbench/run.sh --workload small-scaling --seed 3 --seconds 50 --trace 0
#
# The build cache and temporary files, the Go tool's own settings and
# counters, and the binary all live in .bench_build at the checkout root,
# so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/hostbench" && go build -o "$build/hostbench" .) >&2
cd "$root"
exec "$build/hostbench" "$@"
