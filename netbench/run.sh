#!/usr/bin/env bash
# Builds netbench from the checkout this script sits in and runs it with
# the arguments given (-workload, -seed, -seconds, -trace). Everything the
# build and the run write stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
cd "$root/netbench"
go build -o "$out/netbench" .
exec "$out/netbench" -tmpdir "$out/tmp" -spans "$out/spans" "$@"
