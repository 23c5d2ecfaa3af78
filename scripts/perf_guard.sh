#!/usr/bin/env bash
# Performance guard for the simulator hot paths.
#
# Two gates, both driven by build/bench/perf_microbench:
#
#  1. Registry-overhead pairs: each *Registered benchmark is its plain
#     counterpart with every counter attached to a metrics::Registry and
#     the measure phase open. The registered median cpu time must stay
#     within PERF_GUARD_LIMIT (default 1.03x) of the plain one. Paired
#     WITHIN one run on one machine, so the check is independent of
#     absolute nanoseconds and safe anywhere.
#
#  2. Throughput trend: the BM_SimThroughput/fig3mix_* benchmarks report
#     simulated refs/sec for one full SecureMemorySim run per Figure 3
#     workload. Medians are compared against the most recent entry in
#     the bench/BENCH_micro.json trend file (schema maps-bench-trend-v1)
#     whose host fingerprint matches this machine: any workload slower
#     than (1 - PERF_GUARD_MAX_REGRESSION) x baseline fails the guard.
#     When no entry matches the fingerprint (different machine, e.g. a
#     fresh CI runner), the comparison is reported against the latest
#     entry for information but does not gate — absolute refs/sec are
#     not comparable across hosts. See docs/PERFORMANCE.md.
#
# Every failure mode is loud: a missing binary, a benchmark run that
# produces unparseable JSON, or a missing or malformed trend file is an
# error, never a silent skip.
#
# usage: scripts/perf_guard.sh [path/to/perf_microbench] [trend.json]
#   PERF_GUARD_LIMIT            pair overhead ratio limit (default 1.03)
#   PERF_GUARD_MAX_REGRESSION   allowed fractional throughput loss
#                               vs baseline (default 0.10)
#   PERF_GUARD_RECORD=1         append this run as a new trend entry
#   PERF_GUARD_LABEL            label for the recorded entry
#                               (default: current git revision)
#   PERF_GUARD_SKIP_THROUGHPUT=1  run only the pair-overhead gate
#   PERF_GUARD_ARTIFACT_DIR     if set, keep the raw google-benchmark
#                               JSON results there (CI artifact upload)
set -euo pipefail

BIN="${1:-build/bench/perf_microbench}"
TREND="${2:-bench/BENCH_micro.json}"
LIMIT="${PERF_GUARD_LIMIT:-1.03}"
MAX_REGRESSION="${PERF_GUARD_MAX_REGRESSION:-0.10}"
RECORD="${PERF_GUARD_RECORD:-0}"
SKIP_THROUGHPUT="${PERF_GUARD_SKIP_THROUGHPUT:-0}"

die() { echo "perf_guard: $*" >&2; exit 1; }

command -v jq >/dev/null || die "jq not found"
[ -e "$BIN" ] || die "$BIN does not exist — build the perf_microbench target first"
[ -x "$BIN" ] || die "$BIN is not executable"

TMPDIR_GUARD="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_GUARD"' EXIT
if [ -n "${PERF_GUARD_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$PERF_GUARD_ARTIFACT_DIR" \
        || die "cannot create PERF_GUARD_ARTIFACT_DIR=$PERF_GUARD_ARTIFACT_DIR"
    PAIRS_JSON="$PERF_GUARD_ARTIFACT_DIR/pairs.json"
    TPUT_JSON="$PERF_GUARD_ARTIFACT_DIR/throughput.json"
else
    PAIRS_JSON="$TMPDIR_GUARD/pairs.json"
    TPUT_JSON="$TMPDIR_GUARD/throughput.json"
fi

# Run one benchmark filter and hard-fail unless the output is valid JSON
# with a non-empty .benchmarks array.
run_bench() {
    local filter="$1" reps="$2" out="$3"
    if ! "$BIN" \
        --benchmark_filter="$filter" \
        --benchmark_repetitions="$reps" \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json \
        --benchmark_out="$out" >/dev/null; then
        die "$BIN exited non-zero for filter '$filter'"
    fi
    jq -e '.benchmarks | length > 0' "$out" >/dev/null 2>&1 \
        || die "unparseable or empty benchmark output for filter '$filter' (see $BIN)"
}

# ---------------------------------------------------------------------------
# Gate 1: registry-overhead pairs.
# ---------------------------------------------------------------------------
run_bench 'BM_(HierarchyAccess|ControllerRead)' 7 "$PAIRS_JSON"

median_of() {
    jq -r --arg n "${1}_median" \
        '.benchmarks[] | select(.name == $n) | .cpu_time' "$PAIRS_JSON"
}

fail=0
for pair in \
    "BM_HierarchyAccess BM_HierarchyAccessRegistered" \
    "BM_ControllerRead BM_ControllerReadRegistered"; do
    set -- $pair
    plain=$(median_of "$1")
    registered=$(median_of "$2")
    if [ -z "$plain" ] || [ -z "$registered" ]; then
        die "missing results for pair $1 / $2 — benchmark set out of sync with perf_guard.sh"
    fi
    ratio=$(jq -n --argjson a "$registered" --argjson b "$plain" '$a / $b')
    ok=$(jq -n --argjson r "$ratio" --argjson l "$LIMIT" '$r <= $l')
    printf '%-22s plain=%.1fns registered=%.1fns ratio=%.4f (limit %s)\n' \
        "$1" "$plain" "$registered" "$ratio" "$LIMIT"
    if [ "$ok" != "true" ]; then
        echo "perf_guard: $2 exceeds the ${LIMIT}x overhead limit" >&2
        fail=1
    fi
done

if [ "$SKIP_THROUGHPUT" = "1" ]; then
    echo "perf_guard: throughput trend gate skipped (PERF_GUARD_SKIP_THROUGHPUT=1)"
    exit "$fail"
fi

# ---------------------------------------------------------------------------
# Gate 2: simulated refs/sec trend over the Figure 3 workload mix.
# ---------------------------------------------------------------------------
# BM_AnalyticGrid tracks the analytic estimator's grid wall clock
# alongside (its value is grid cells/sec, self-consistent within its own
# trend series).
run_bench 'BM_SimThroughput/|BM_AnalyticGrid/' 3 "$TPUT_JSON"

# {"canneal": refs_per_sec, ..., "analytic_grid": cells_per_sec} from
# the per-benchmark medians.
RESULTS=$(jq '[.benchmarks[]
        | select(.name
                 | test("^BM_(SimThroughput/fig3mix_|AnalyticGrid/).*_median$"))
        | {key: (.name | sub("^BM_SimThroughput/fig3mix_"; "")
                       | sub("^BM_AnalyticGrid/"; "")
                       | sub("/iterations:[0-9]+"; "")
                       | sub("_median$"; "")),
           value: .items_per_second}]
    | from_entries' "$TPUT_JSON")
[ "$(jq 'length' <<<"$RESULTS")" -gt 0 ] \
    || die "no BM_SimThroughput medians in benchmark output — benchmark set out of sync with perf_guard.sh"

# Host fingerprint: refs/sec are only comparable on the same hardware.
FINGERPRINT=$(jq --arg arch "$(uname -m)" \
    '{cpus: .context.num_cpus, mhz: (.context.mhz_per_cpu // 0 | floor),
      arch: $arch}' "$TPUT_JSON")

echo "throughput (simulated refs/sec; analytic_grid in cells/sec, median of 3):"
jq -r 'to_entries[] | "  \(.key)\t\(.value | floor)"' <<<"$RESULTS"

if [ ! -e "$TREND" ]; then
    if [ "$RECORD" = "1" ]; then
        echo '{"schema": "maps-bench-trend-v1", "unit": "refs_per_sec", "entries": []}' >"$TREND"
    else
        die "trend file $TREND does not exist (run with PERF_GUARD_RECORD=1 to create it)"
    fi
fi
jq -e '.schema == "maps-bench-trend-v1" and (.entries | type == "array")' \
    "$TREND" >/dev/null 2>&1 \
    || die "$TREND is not a maps-bench-trend-v1 trend file"

BASELINE=$(jq --argjson fp "$FINGERPRINT" \
    '[.entries[] | select(.fingerprint == $fp)] | last // empty' "$TREND")
gate=1
if [ -z "$BASELINE" ]; then
    BASELINE=$(jq '.entries | last // empty' "$TREND")
    gate=0
    if [ -n "$BASELINE" ]; then
        echo "perf_guard: NOTE: no trend entry matches this host fingerprint" \
             "($(jq -c . <<<"$FINGERPRINT")); comparing against" \
             "'$(jq -r '.label' <<<"$BASELINE")' for information only" >&2
    else
        echo "perf_guard: NOTE: trend file has no entries yet; nothing to compare" >&2
    fi
fi

if [ -n "$BASELINE" ]; then
    floor_ratio=$(jq -n --argjson m "$MAX_REGRESSION" '1 - $m')
    echo "vs baseline '$(jq -r '.label + " (" + .date + ")"' <<<"$BASELINE")'" \
         "(regression floor ${floor_ratio}x):"
    while IFS=$'\t' read -r name cur base; do
        if [ "$base" = "null" ]; then
            printf '  %-12s %12.0f  (no baseline value)\n' "$name" "$cur"
            continue
        fi
        ratio=$(jq -n --argjson a "$cur" --argjson b "$base" '$a / $b')
        printf '  %-12s %12.0f vs %12.0f  ratio=%.3f\n' "$name" "$cur" "$base" "$ratio"
        ok=$(jq -n --argjson r "$ratio" --argjson f "$floor_ratio" '$r >= $f')
        if [ "$ok" != "true" ]; then
            if [ "$gate" = "1" ]; then
                echo "perf_guard: $name regressed more than ${MAX_REGRESSION} vs baseline" >&2
                fail=1
            else
                echo "perf_guard: NOTE: $name below baseline, not gating (fingerprint mismatch)" >&2
            fi
        fi
    done < <(jq -r --argjson base "$BASELINE" \
        'to_entries[]
         | [.key, .value, (($base.results[.key] // null) | tojson)]
         | @tsv' \
        <<<"$RESULTS")
fi

if [ "$RECORD" = "1" ]; then
    LABEL="${PERF_GUARD_LABEL:-$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)}"
    DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    ENTRY=$(jq -n --arg lbl "$LABEL" --arg when "$DATE" \
        --argjson fp "$FINGERPRINT" --argjson results "$RESULTS" \
        '{"label": $lbl, "date": $when, "fingerprint": $fp, "results": $results}')
    jq --argjson entry "$ENTRY" '.entries += [$entry]' "$TREND" \
        >"$TMPDIR_GUARD/trend.json"
    mv "$TMPDIR_GUARD/trend.json" "$TREND"
    echo "perf_guard: recorded trend entry '$LABEL' in $TREND"
fi

exit "$fail"
