#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash pdftspbench/run.sh --workload intake-burst --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/pdftspbench" && go build -o "$out/pdftspbench" .)
cd "$root"
exec "$out/pdftspbench" "$@"
