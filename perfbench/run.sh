#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold|hits-warm|resume-tiered \
#        --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache, the per-seed store fixtures, working
# stores and trace spans all stay under .bench_build/ in the current
# directory; nothing is read or written outside it but the Go toolchain.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
