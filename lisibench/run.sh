#!/usr/bin/env bash
# Builds the LISI benchmark from the sources of this checkout and runs it.
#
#   bash lisibench/run.sh --workload paper-krylov --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ at the checkout root, so a run touches nothing
# outside the checkout. The last line of standard output is the JSON
# result; see lisibench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$root/lisibench" && go build -o "$out/lisibench" .)
cd "$root"
exec "$out/lisibench" "$@"
