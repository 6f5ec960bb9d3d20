#!/usr/bin/env bash
# Builds specbench from the sources of the checkout it is run from, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash cmd/specbench/run.sh --workload serve-predict --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go caches, the binary, temporary
# model directories, span files) stays under .bench_build at the root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/spans"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$out/specbench" .)
exec "$out/specbench" -spans "$out/spans" "$@"
