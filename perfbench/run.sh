#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the checkout root:
#
#	bash perfbench/run.sh --workload gdrd-durable --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, GOPATH, the go command's own
# config and telemetry files, temporary files, the binary and the servers'
# data directories.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
