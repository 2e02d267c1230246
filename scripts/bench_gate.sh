#!/usr/bin/env bash
# Perf-trend gate: run the replay-path, predictor, BPU-structure,
# random-stream, trace-generator, CPU-timing-model, wire-codec and
# worker-chunk micro-benchmarks on a base commit and on the working tree
# in one session, and fail when the working tree's ns/op regresses
# against the base's, or its allocs/op against the committed
# BENCH_13.json baseline. ns/op is compared within one session because
# a shared host's speed drifts between sessions: against ns/op recorded
# at another moment, every key can read 2-4x slower at once with no
# code change. Allocation counts do not drift, so they gate against the
# committed file. Fleet benchmarks (harness/FleetWarm*) are recorded for
# trend visibility but never threshold-gated: they time a live 2-worker
# TCP fleet, where scheduler and network jitter dwarfs any
# micro-regression.
#
# ns/op is gated only for packages the change can have slowed. Before
# the rounds, each gated package's test binary is built on BASE and on
# the working tree (go test -c -trimpath, so the checkout's path is not
# in the binary) and the two are compared with cmp. A package whose
# binaries are byte-identical runs the same machine code on both sides,
# so any ns/op difference there is host noise: the script prints
# "same binary" for it, runs its benchmarks on the working tree only,
# and gates their allocs/op but not their ns/op. Even at CI's 50%
# threshold, noise bursts on a shared host have read such packages
# 1.5-1.7x "regressed".
#
# usage: scripts/bench_gate.sh [BASE | -update]
#   BASE       commit to compare ns/op against (default HEAD), extracted
#              with git archive into a temporary directory
#   -update    rewrite BENCH_13.json from the working tree and skip the gate
#
# env knobs:
#   BENCH_GATE_BENCHTIME        go test -benchtime (default 0.3s)
#   BENCH_GATE_COUNT            rounds per side (default 4). A round runs
#                               every benchmark once (-count 1) on BASE
#                               and on the working tree, alternating which
#                               side goes first; the recorded value per
#                               benchmark is the MINIMUM across rounds,
#                               far more stable than any single sample.
#                               Keep it even, so each side goes first
#                               equally often and drift within a round
#                               favours neither
#   BENCH_GATE_NS_THRESHOLD     max tolerated relative ns/op growth over
#                               BASE (default 0.10)
#   BENCH_GATE_ALLOC_THRESHOLD  max tolerated relative allocs/op growth
#                               over BENCH_13.json (default 0 —
#                               allocation counts are deterministic, any
#                               increase fails)
#   BENCH_GATE_ALLOC_SLACK      absolute allocs/op allowance on top of
#                               the relative threshold (default 1 —
#                               runtime-internal allocations during the
#                               timed window leak ±1 into the memstats
#                               delta on busy machines; a real leak
#                               scales with the op and clears the slack)
#
# Two keys' allocs/op move with runtime scheduling by more than that
# slack, and gate at their baseline plus their measured spread instead
# (ALLOC_SPREAD below); every other key keeps BENCH_GATE_ALLOC_SLACK.
#
# Benchmarks are keyed as <package>/<name> with the GOMAXPROCS suffix
# stripped, so the file is stable across machines with different core
# counts. A benchmark present in BENCH_13.json but missing from the
# working tree's run fails the gate: silently losing perf coverage is
# itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_13.json
BENCHTIME="${BENCH_GATE_BENCHTIME:-0.3s}"
COUNT="${BENCH_GATE_COUNT:-4}"
NS_THR="${BENCH_GATE_NS_THRESHOLD:-0.10}"
ALLOC_THR="${BENCH_GATE_ALLOC_THRESHOLD:-0}"
ALLOC_SLACK="${BENCH_GATE_ALLOC_SLACK:-1}"
# Measured allocs/op spread (max - min) of the keys whose counts jitter
# run to run: sim/ReplayMulti/trace-major read 62-64 over 12 runs and
# still 62-65 over 8 with the GC off, so the spread comes from runtime
# scheduling, not from GC or a leak (a per-chunk leak would add >= 13
# per op on its 100k-record trace); cpu/PipelineEngine read
# 642,843-642,857 over 6 runs.
ALLOC_SPREAD="sim/ReplayMulti/trace-major=3 cpu/PipelineEngine=14"
PKGS=(./internal/sim/ ./internal/cpu/ ./internal/bpu/ ./internal/tage/ ./internal/perceptron/ ./internal/ittage/ ./internal/rng/ ./internal/tracestore/ ./internal/trace/ ./internal/snapstore/)
HARNESS=./internal/harness/

update=0
base=HEAD
case "${1:-}" in
  -update) update=1 ;;
  -*) echo "usage: scripts/bench_gate.sh [BASE | -update]" >&2; exit 2 ;;
  ?*) base=$1 ;;
esac

command -v jq >/dev/null || { echo "bench_gate: jq is required" >&2; exit 2; }

if [ "$update" -eq 0 ] && [ ! -f "$OUT" ]; then
  echo "bench_gate: no committed baseline $OUT; run scripts/bench_gate.sh -update first" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# bench DIR PKG... runs one -count 1 pass of every recorded benchmark
# of the given packages in the tree at DIR. The harness package holds
# the bin1 codec, worker-chunk and fleet benchmarks; its whole-suite
# benchmark (Fig3Fig4) is excluded — it times entire scenario runs, too
# coarse for a micro-benchmark gate.
bench() {
  local dir=$1 harness=0 pkgs=() p
  shift
  for p in "$@"; do
    if [ "$p" = "$HARNESS" ]; then harness=1; else pkgs+=("$p"); fi
  done
  (cd "$dir" &&
    { [ "${#pkgs[@]}" -eq 0 ] || go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count 1 "${pkgs[@]}"; } &&
    { [ "$harness" -eq 0 ] || go test -run '^$' -bench 'BenchmarkWireSpecs|BenchmarkExecuteChunk|BenchmarkFleetWarm' -benchmem -benchtime "$BENCHTIME" -count 1 "$HARNESS"; })
}

# "pkg: stbpu/internal/sim" headers scope the benchmark names; value
# fields precede their unit tokens (ns/op, allocs/op). Each benchmark
# appears once per round; keep the minimum, the stable statistic under
# scheduler noise.
minimums() {
  awk '
    $1 == "pkg:" { n = split($2, parts, "/"); pkg = parts[n]; next }
    $1 ~ /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      sub(/^Benchmark/, "", name)
      ns = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
      }
      if (ns == "" || allocs == "") next
      key = pkg "/" name
      if (!(key in min_ns) || ns + 0 < min_ns[key] + 0) min_ns[key] = ns
      if (!(key in min_al) || allocs + 0 < min_al[key] + 0) min_al[key] = allocs
    }
    END { for (key in min_ns) printf "%s\t%s\t%s\n", key, min_ns[key], min_al[key] }' "$1" | sort
}

# same holds the key prefixes (package names) whose test binary is
# byte-identical on BASE and on the working tree; changed lists the
# packages that differ, the only ones BASE runs.
same=" "
changed=()
if [ "$update" -eq 0 ]; then
  git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "bench_gate: unknown base commit $base" >&2; exit 2; }
  mkdir "$tmp/base" "$tmp/bin"
  git archive "$base" | tar -x -C "$tmp/base"
  for pkg in "${PKGS[@]}" "$HARNESS"; do
    name=$(basename "$pkg")
    (cd "$tmp/base" && go test -c -trimpath -o "$tmp/bin/base.test" "$pkg")
    go test -c -trimpath -o "$tmp/bin/new.test" "$pkg"
    if cmp -s "$tmp/bin/base.test" "$tmp/bin/new.test"; then
      echo "bench_gate: $name: same binary, ns/op not gated" >&2
      same+="$name "
    else
      echo "bench_gate: $name: binary differs, ns/op gated" >&2
      changed+=("$pkg")
    fi
  done
  rm -rf "$tmp/bin"
fi
: > "$tmp/new.txt"
: > "$tmp/base.txt"
echo "bench_gate: ${PKGS[*]} $HARNESS at -benchtime $BENCHTIME, $COUNT rounds" >&2
for ((round = 1; round <= COUNT; round++)); do
  sides=(new)
  if [ "${#changed[@]}" -gt 0 ]; then
    if ((round % 2)); then sides=(base new); else sides=(new base); fi
  fi
  for side in "${sides[@]}"; do
    echo "bench_gate: round $round/$COUNT: $side" >&2
    if [ "$side" = base ]; then
      bench "$tmp/base" "${changed[@]}" >> "$tmp/base.txt"
    else
      bench . "${PKGS[@]}" "$HARNESS" >> "$tmp/new.txt"
    fi
  done
done

new_tsv=$(minimums "$tmp/new.txt")
if [ -z "$new_tsv" ]; then
  echo "bench_gate: no benchmark results parsed" >&2
  exit 2
fi

# The committed baseline is only ever replaced by an explicit -update:
# a gate run writes its measurements next to it ($OUT.measured) instead,
# so neither a failed run (which would let an immediate rerun gate
# against the regression) nor a passing run (which would silently
# ratchet the baseline by sub-threshold drift, or down to a lucky fast
# sample) can mutate what the gate compares against.
write_out() {
  printf '%s\n' "$new_tsv" | jq -R -s '
    {benchmarks: (split("\n") | map(select(length > 0) | split("\t")
      | {key: .[0], value: {ns_per_op: (.[1] | tonumber), allocs_per_op: (.[2] | tonumber)}})
      | from_entries)}' > "$1"
  echo "bench_gate: wrote $1 ($(printf '%s\n' "$new_tsv" | wc -l) benchmarks)" >&2
}

if [ "$update" -eq 1 ]; then
  write_out "$OUT"
  echo "bench_gate: baseline updated, gate skipped" >&2
  exit 0
fi

jq -r '.benchmarks | to_entries[] | "\(.key)\t\(.value.ns_per_op)\t\(.value.allocs_per_op)"' "$OUT" > "$tmp/ref.tsv"
minimums "$tmp/base.txt" > "$tmp/base.tsv"
printf '%s\n' "$new_tsv" > "$tmp/new.tsv"
fail=$(awk -F'\t' -v ns_thr="$NS_THR" -v alloc_thr="$ALLOC_THR" -v alloc_slack="$ALLOC_SLACK" -v alloc_spread="$ALLOC_SPREAD" -v same="$same" '
  BEGIN {
    n = split(alloc_spread, pairs, " ")
    for (i = 1; i <= n; i++) { split(pairs[i], kv, "="); spread[kv[1]] = kv[2] }
    n = split(same, names, " ")
    for (i = 1; i <= n; i++) unchanged[names[i]] = 1
  }
  FILENAME == ARGV[1] { ref_allocs[$1] = $3; next }
  FILENAME == ARGV[2] { base_ns[$1] = $2; next }
  {
    seen[$1] = 1
    if (!($1 in ref_allocs)) printf "new       %-48s ns/op=%s allocs/op=%s (not in baseline)\n", $1, $2, $3
    # Fleet benchmarks are recorded, never gated (see header).
    if ($1 ~ /^harness\/FleetWarm/) next
    ns = $2 + 0; bns = base_ns[$1] + 0
    # A package with the same binary on both sides has no BASE run and
    # no ns/op gate (see header); its allocs/op are gated below.
    split($1, kp, "/")
    if (!(kp[1] in unchanged) && bns > 0) {
      if (ns / bns > worst) { worst = ns / bns; worst_key = $1 }
      if (ns > bns * (1 + ns_thr)) {
        printf "REGRESSED %-48s ns/op %s -> %s (+%.1f%% over base, limit +%.0f%%)\n", $1, bns, ns, (ns / bns - 1) * 100, ns_thr * 100
        bad = 1
      }
    }
    if (!($1 in ref_allocs)) next
    al = $3 + 0; bal = ref_allocs[$1] + 0
    slack = alloc_slack + 0
    if (spread[$1] + 0 > slack) slack = spread[$1] + 0
    if (al > bal * (1 + alloc_thr) + slack) {
      printf "REGRESSED %-48s allocs/op %s -> %s (limit +%.0f%% +%d)\n", $1, bal, al, alloc_thr * 100, slack
      bad = 1
    }
  }
  END {
    for (name in ref_allocs) if (!(name in seen)) { printf "MISSING   %-48s present in baseline, absent from run\n", name; bad = 1 }
    if (worst_key != "") printf "largest   %-48s ns/op ratio %.2fx over base\n", worst_key, worst
    exit bad
  }' "$tmp/ref.tsv" "$tmp/base.tsv" "$tmp/new.tsv") && status=0 || status=1
[ -n "$fail" ] && printf '%s\n' "$fail" >&2

write_out "$OUT.measured"
if [ "$status" -ne 0 ]; then
  echo "bench_gate: FAILED (ns/op threshold +${NS_THR} over $base, allocs/op threshold +${ALLOC_THR} over $OUT); measured values in $OUT.measured, baseline left intact" >&2
  exit 1
fi
echo "bench_gate: OK — no metric regressed beyond thresholds (measured values in $OUT.measured; refresh the baseline with -update)" >&2
