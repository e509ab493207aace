#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload detail-sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, module cache,
# the go command's config and telemetry, temp files, the binary, the
# service's stores) stays under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f fvp.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an fvp checkout (go.mod, fvp.go and perfbench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
