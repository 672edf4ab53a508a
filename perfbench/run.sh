#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload congested-dense --seed 1 --seconds 36 --trace 0
#
# Every build product, the Go build cache and the go command's own
# configuration and telemetry stay under .bench_build in the working
# directory; no module is fetched (GOPROXY=off). Outside a full
# checkout (no parent module next to perfbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
