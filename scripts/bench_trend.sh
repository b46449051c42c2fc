#!/usr/bin/env bash
# Bench trend gate: compare a freshly generated BENCH_*.json against the
# committed baseline copy and fail on a >20% regression of any metric.
#
# Every report is written by bmf_bench::study::ReportWriter in one flat
# layout: top-level scalars, one-line `"section": { "key": value, ... }`
# objects, and arrays of one-line objects, which is what the flattener
# below parses (crates/bench/tests/trend_gate.rs pins the two together).
# Array rows flatten to `section[i].key` (i counts from 0), so every row
# is gated.
#
# Direction comes from the metric's own name (the part after the last
# '.'): names matching a glob in HIGHER_IS_BETTER (success counts,
# recovery rates, speedups, throughputs) regress downward, everything
# else (latencies, allocation counts, solve counts) regresses upward. A
# metric present in the baseline but missing from the fresh report
# fails: a gated number must not silently disappear.
#
# The `scenario` block is the run's configuration, not a metric. Two
# reports are only comparable when their scenarios match exactly, so the
# gate refuses (exit 1, naming every differing key) when they do not, and
# never gates scenario keys themselves.
#
# Usage:
#   scripts/bench_trend.sh <fresh.json> <committed.json> [--ignore k1,k2]
#
# `--ignore` entries match a flattened key exactly ("serial_cv_fit.wall_s")
# or by component ("wall_s" ignores every section's wall_s).
set -euo pipefail

[[ $# -ge 2 ]] || { echo "usage: $0 <fresh.json> <committed.json> [--ignore k1,k2]" >&2; exit 2; }
fresh="$1"
committed="$2"
shift 2
ignore=""
if [[ "${1:-}" == "--ignore" ]]; then
    [[ $# -ge 2 ]] || { echo "--ignore needs a key list" >&2; exit 2; }
    ignore="$2"
fi

[[ -f "$fresh" ]] || { echo "FAIL: fresh report $fresh not found" >&2; exit 1; }
[[ -f "$committed" ]] || { echo "FAIL: committed baseline $committed not found" >&2; exit 1; }

TOLERANCE=0.20

# Metric names (globs) for which a drop, not a rise, is the regression.
HIGHER_IS_BETTER=(
    'recovered*'
    recovery_rate_permille
    '*_clean'
    verified_predictions
    bitwise_checks
    fits_ok
    '*speedup*'
    '*throughput*'
)

higher_is_better() {
    local name="${1##*.}" pat
    for pat in "${HIGHER_IS_BETTER[@]}"; do
        # $pat is unquoted so it matches as a glob.
        [[ "$name" == $pat ]] && return 0
    done
    return 1
}

# Flattens the repo's flat JSON style to "section.key value" lines, and
# array rows to "section[i].key value" lines.
flatten() {
    awk '
        # Prints the "key": value pairs of the one-line object on this
        # line, each key prefixed with `prefix`.
        function pairs_of(prefix,    body, n, i, p, kv, pairs) {
            body = $0
            sub(/^[^{]*\{/, "", body); sub(/\}.*$/, "", body)
            n = split(body, pairs, ",")
            for (i = 1; i <= n; i++) {
                p = pairs[i]
                gsub(/[[:space:]"]/, "", p)
                split(p, kv, ":")
                if (kv[1] != "") print prefix "." kv[1], kv[2]
            }
        }
        arr != "" && /^[[:space:]]*\]/ { arr = ""; next }
        arr != "" && /^[[:space:]]*\{/ { pairs_of(arr "[" row++ "]"); next }
        /^[[:space:]]*"[A-Za-z0-9_]+": \[[[:space:]]*$/ {
            arr = $0
            sub(/^[[:space:]]*"/, "", arr); sub(/".*/, "", arr)
            row = 0
            next
        }
        /^[[:space:]]*"[A-Za-z0-9_]+": \{/ {
            sec = $0
            sub(/^[[:space:]]*"/, "", sec); sub(/".*/, "", sec)
            pairs_of(sec)
            next
        }
        /^[[:space:]]*"[A-Za-z0-9_]+": / {
            k = $0
            sub(/^[[:space:]]*"/, "", k); sub(/".*/, "", k)
            v = $0
            sub(/^[^:]*:[[:space:]]*/, "", v); sub(/,?[[:space:]]*$/, "", v)
            print k, v
        }
    ' "$1"
}

fresh_flat=$(flatten "$fresh")
committed_flat=$(flatten "$committed")

# Refuse to compare runs of different scenarios.
scenario_diff=$(awk '
    $1 ~ /^scenario\./ {
        key = substr($1, 10)
        if (NR == FNR) { base[key] = $2 } else { fresh[key] = $2 }
    }
    END {
        for (k in base) {
            if (!(k in fresh)) print k " (baseline " base[k] ", fresh absent)"
            else if (base[k] != fresh[k]) print k " (baseline " base[k] ", fresh " fresh[k] ")"
        }
        for (k in fresh) if (!(k in base)) print k " (baseline absent, fresh " fresh[k] ")"
    }
' <(echo "$committed_flat") <(echo "$fresh_flat") | sort)
if [[ -n "$scenario_diff" ]]; then
    echo "FAIL: refusing to compare $fresh with $committed: their scenarios differ:" >&2
    while read -r line; do echo "  scenario.$line" >&2; done <<< "$scenario_diff"
    echo "Regenerate the baseline from the configuration this gate runs" >&2
    exit 1
fi

fail=0

while read -r key base; do
    [[ -n "$key" ]] || continue
    # Scenario keys were matched above; they are not metrics.
    [[ "$key" != scenario.* ]] || continue
    skip=0
    IFS=',' read -ra ignored <<< "$ignore"
    for ig in ${ignored[@]+"${ignored[@]}"}; do
        if [[ "$key" == "$ig" || "$key" == *".$ig" ]]; then
            skip=1
            break
        fi
    done
    [[ $skip -eq 0 ]] || continue

    new=$(awk -v k="$key" '$1 == k { print $2; exit }' <<< "$fresh_flat")
    if [[ -z "$new" ]]; then
        echo "FAIL: metric $key missing from fresh report" >&2
        fail=1
        continue
    fi
    higher=0
    if higher_is_better "$key"; then higher=1; fi
    if ! awk -v higher="$higher" -v b="$base" -v n="$new" -v tol="$TOLERANCE" 'BEGIN {
            b += 0; n += 0
            if (higher) {
                worse = (n < b * (1 - tol))
            } else {
                worse = (n > b * (1 + tol) && n > b)
            }
            exit worse ? 1 : 0
        }'; then
        echo "FAIL: $key regressed beyond ${TOLERANCE}: baseline $base, fresh $new" >&2
        fail=1
    fi
done <<< "$committed_flat"

if [[ $fail -ne 0 ]]; then
    echo "Trend gate failed: regenerate the baseline only for intentional changes" >&2
    exit 1
fi
echo "OK: no metric in $fresh regressed >20% vs $committed"
