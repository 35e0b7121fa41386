#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through, and Go's flag package reads the
# double-dash forms too:
#
#   bash bench/run.sh --workload list-read --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, the traces)
# stays under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -outdir "$out" "$@"
