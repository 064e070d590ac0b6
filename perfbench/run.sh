#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload htex-serial --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#
# The Go build cache and temporary files stay under .bench_build, so a run
# writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
