#!/usr/bin/env bash
# Builds the benchmark and the stbpu-suite binary it drives from source,
# then runs the benchmark with the given arguments. Everything the build
# and the runs leave behind (Go build cache, binaries, suite documents,
# trace and snapshot tier directories) goes under .bench_build/ at the
# repository root, so nothing is written outside the checkout.
#
#   bash bench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -o .bench_build/set1.json
#   bash bench/run.sh -compare set1.json set2.json
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
(cd "$root" && go build -o "$out/stbpu-suite" ./cmd/stbpu-suite)

exec "$out/bench" -root "$root" -suite "$out/stbpu-suite" -work "$out/work" "$@"
