#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is run
# from and runs one workload. Run it from the root of the checkout:
#
#   bash e2ebench/run.sh --workload dblp-central --seed 424242 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, module cache, tool state, the binary)
# stays under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
