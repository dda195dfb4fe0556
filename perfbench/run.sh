#!/usr/bin/env bash
# Builds the serving daemon and the benchmark driver from the checkout this
# script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare a.json b.json
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout root. Run it from that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C "$root" -o "$out/bin/" ./cmd/sfcserved
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
