#!/bin/sh
# Builds and runs the benchmark. Run from the repository root:
#
#   sh cmd/vsvbench/run.sh --workload paper_all --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files, the binary, scratch
# files and reports all stay under .bench_build in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/vsvbench" && go build -o "$out/vsvbench" .)
exec "$out/vsvbench" "$@"
