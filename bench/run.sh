#!/bin/sh
# run.sh — build bench/diybench from source and run it.
#
#   sh bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# The benchmark is its own Go module (bench/go.mod) that reaches the
# simulator's packages through a replace of the enclosing module, so it
# builds only inside a full checkout. Everything the toolchain writes —
# build cache, module cache, settings, the binary — stays under
# bench/.bench_build/, and nothing is downloaded.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/bench/.bench_build"
mkdir -p "$out/home"
HOME="$out/home"
XDG_CONFIG_HOME="$out/home"
XDG_CACHE_HOME="$out/home"
GOCACHE="$out/gocache"
GOMODCACHE="$out/gomodcache"
GOPATH="$out/gopath"
GOENV=off
GOFLAGS=-mod=readonly
GOPROXY=off
GOSUMDB=off
GOTOOLCHAIN=local
CGO_ENABLED=0
export HOME XDG_CONFIG_HOME XDG_CACHE_HOME GOCACHE GOMODCACHE GOPATH GOENV GOFLAGS GOPROXY GOSUMDB GOTOOLCHAIN CGO_ENABLED
cd "$root/bench"
go build -o "$out/diybench" ./diybench
cd "$root"
exec "$out/diybench" "$@"
