#!/usr/bin/env bash
# Perf-trend gate: run the replay-path, predictor, BPU-structure,
# random-stream, trace-generator, CPU-timing-model, wire-codec and
# worker-chunk micro-benchmarks, write BENCH_13.json (benchmark -> ns/op,
# allocs/op), and fail when a metric regresses against the committed
# baseline. Fleet benchmarks (harness/FleetWarm*) are recorded for trend
# visibility but never threshold-gated: they time a live 2-worker TCP
# fleet, where scheduler and network jitter dwarfs any micro-regression.
#
# usage: scripts/bench_gate.sh [-update]
#   -update    rewrite BENCH_13.json as the new baseline and skip the gate
#
# env knobs:
#   BENCH_GATE_BENCHTIME        go test -benchtime (default 0.3s)
#   BENCH_GATE_COUNT            go test -count; the recorded value per
#                               benchmark is the MINIMUM across runs
#                               (default 3 — the min is far more stable
#                               than any single sample, which is what a
#                               10% gate needs)
#   BENCH_GATE_NS_THRESHOLD     max tolerated relative ns/op growth
#                               (default 0.10 — same-machine baselines;
#                               CI runs cross-machine and widens this,
#                               relying on the alloc gate for precision)
#   BENCH_GATE_ALLOC_THRESHOLD  max tolerated relative allocs/op growth
#                               (default 0 — allocation counts are
#                               deterministic, any increase fails)
#   BENCH_GATE_ALLOC_SLACK      absolute allocs/op allowance on top of
#                               the relative threshold (default 1 —
#                               runtime-internal allocations during the
#                               timed window leak ±1 into the memstats
#                               delta on busy machines; a real leak
#                               scales with the op and clears the slack)
#
# Benchmarks are keyed as <package>/<name> with the GOMAXPROCS suffix
# stripped, so the file is stable across machines with different core
# counts. A benchmark present in the baseline but missing from the run
# fails the gate: silently losing perf coverage is itself a regression.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_13.json
BENCHTIME="${BENCH_GATE_BENCHTIME:-0.3s}"
COUNT="${BENCH_GATE_COUNT:-3}"
NS_THR="${BENCH_GATE_NS_THRESHOLD:-0.10}"
ALLOC_THR="${BENCH_GATE_ALLOC_THRESHOLD:-0}"
ALLOC_SLACK="${BENCH_GATE_ALLOC_SLACK:-1}"
PKGS=(./internal/sim/ ./internal/cpu/ ./internal/bpu/ ./internal/tage/ ./internal/perceptron/ ./internal/ittage/ ./internal/rng/ ./internal/tracestore/ ./internal/trace/ ./internal/snapstore/)

update=0
if [ "${1:-}" = "-update" ]; then
  update=1
elif [ -n "${1:-}" ]; then
  echo "usage: scripts/bench_gate.sh [-update]" >&2
  exit 2
fi

command -v jq >/dev/null || { echo "bench_gate: jq is required" >&2; exit 2; }

if [ "$update" -eq 0 ] && [ ! -f "$OUT" ]; then
  echo "bench_gate: no committed baseline $OUT; run scripts/bench_gate.sh -update first" >&2
  exit 2
fi

baseline_tsv=""
if [ -f "$OUT" ]; then
  baseline_tsv=$(jq -r '.benchmarks | to_entries[] | "\(.key)\t\(.value.ns_per_op)\t\(.value.allocs_per_op)"' "$OUT")
fi

echo "bench_gate: running ${PKGS[*]} at -benchtime $BENCHTIME -count $COUNT" >&2
raw=$(go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" "${PKGS[@]}")
# The harness package holds the bin1 codec, worker-chunk and fleet
# benchmarks; its whole-suite benchmark (Fig3Fig4) is excluded — it
# times entire scenario runs, too coarse for a micro-benchmark gate.
echo "bench_gate: running ./internal/harness/ (WireSpecsBinary, ExecuteChunk, FleetWarm) at -benchtime $BENCHTIME -count $COUNT" >&2
raw="$raw
$(go test -run '^$' -bench 'BenchmarkWireSpecs|BenchmarkExecuteChunk|BenchmarkFleetWarm' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/harness/)"

# "pkg: stbpu/internal/sim" headers scope the benchmark names; value
# fields precede their unit tokens (ns/op, allocs/op). With -count > 1
# each benchmark appears once per run; keep the minimum, the stable
# statistic under scheduler noise.
new_tsv=$(printf '%s\n' "$raw" | awk '
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
  END { for (key in min_ns) printf "%s\t%s\t%s\n", key, min_ns[key], min_al[key] }' | sort)

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

printf '%s\n%s\n' "$baseline_tsv" "@@NEW@@" > /tmp/bench_gate_cmp.$$
printf '%s\n' "$new_tsv" >> /tmp/bench_gate_cmp.$$
fail=$(awk -F'\t' -v ns_thr="$NS_THR" -v alloc_thr="$ALLOC_THR" -v alloc_slack="$ALLOC_SLACK" '
  /^@@NEW@@$/ { phase = 1; next }
  NF < 3 { next }
  phase == 0 { base_ns[$1] = $2; base_allocs[$1] = $3; next }
  {
    seen[$1] = 1
    if (!($1 in base_ns)) { printf "new       %-48s ns/op=%s allocs/op=%s (no baseline)\n", $1, $2, $3; next }
    # Fleet benchmarks are recorded, never gated (see header).
    if ($1 ~ /^harness\/FleetWarm/) next
    ns = $2 + 0; bns = base_ns[$1] + 0
    al = $3 + 0; bal = base_allocs[$1] + 0
    if (bns > 0 && ns > bns * (1 + ns_thr)) {
      printf "REGRESSED %-48s ns/op %s -> %s (+%.1f%%, limit +%.0f%%)\n", $1, bns, ns, (ns / bns - 1) * 100, ns_thr * 100
      bad = 1
    }
    if (al > bal * (1 + alloc_thr) + alloc_slack) {
      printf "REGRESSED %-48s allocs/op %s -> %s (limit +%.0f%% +%d)\n", $1, bal, al, alloc_thr * 100, alloc_slack
      bad = 1
    }
  }
  END {
    for (name in base_ns) if (!(name in seen)) { printf "MISSING   %-48s present in baseline, absent from run\n", name; bad = 1 }
    exit bad
  }' /tmp/bench_gate_cmp.$$) && status=0 || status=1
rm -f /tmp/bench_gate_cmp.$$
[ -n "$fail" ] && printf '%s\n' "$fail" >&2

write_out "$OUT.measured"
if [ "$status" -ne 0 ]; then
  echo "bench_gate: FAILED against committed baseline (ns threshold +${NS_THR}, alloc threshold +${ALLOC_THR}); measured values in $OUT.measured, baseline left intact" >&2
  exit 1
fi
echo "bench_gate: OK — no metric regressed beyond thresholds (measured values in $OUT.measured; refresh the baseline with -update)" >&2
