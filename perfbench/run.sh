#!/usr/bin/env bash
# Builds the Oasis benchmark from the source tree it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload reattach --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live
# under .bench_build/ in that root; nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# Keep the toolchain hermetic: no module downloads, no toolchain switch,
# caches and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off CGO_ENABLED=0
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
