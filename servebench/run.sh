#!/usr/bin/env bash
# Builds servebench from the checkout's sources and runs it, passing every
# flag through. Run from the repository root:
#
#   bash servebench/run.sh --workload ingest-heavy --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, and the benchmark's logs and traces all
# stay under .bench_build/ in the current directory; the build output goes
# to standard error, so the result line stays last on standard output.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/server || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the deptree repository root (no deptree sources in $PWD)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd servebench && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" --workdir "$out/servebench" "$@"
