#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Run it
# from the root of the checkout:
#
#   bash e2ebench/run.sh --workload report-paper --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the traced run's spans all stay under
# .bench_build in the checkout. Without the repository's Go module next to
# e2ebench/ the build fails and the script exits non-zero, printing no
# result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
