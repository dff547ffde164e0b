#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash snetbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays in .bench_build at the root:
# the Go build cache, the binary, scratch journals and trace files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/home/mod" \
	GOPATH="$out/home/go" HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" \
	GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# The benchmark module replaces snet with the checkout root; without the
# repository's go.mod beside it the build fails here, before any result.
(cd "$root/snetbench" && go build -o "$out/snetbench" .)
exec "$out/snetbench" "$@"
