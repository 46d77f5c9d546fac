#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of the repository:
#
#   sh perfbench/run.sh --workload hd-search --seed 1 --seconds 30 --trace 0
#
# Every build and run artefact stays under .bench_build in that directory.
set -e
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
