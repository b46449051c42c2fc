#!/usr/bin/env bash
# Smoke-runs bench binaries and checks that what they write does not
# depend on the worker pool size.
#
# Each bench runs its `--smoke` mode twice, at BMF_THREADS=1 and at the
# default pool, each with BMF_BENCH_OUT set to its own directory under
# target/smoke/<bench>/, and the two directories must be byte-identical:
# the BENCH_*.json report, and the persist bench's artifact store. Every
# other smoke check runs in the bench binary, which exits 1 instead of
# writing a report: the report writer (bmf_bench::study) refuses NaN,
# inf and keys the trend gate cannot parse, and each study fails its own
# headline checks. With `--features bench` the solver, batch and
# sequential benches also assert their allocation budgets.
#
# Usage:
#   scripts/bench_smoke.sh [--features <feat>] <bench>...
set -euo pipefail

cd "$(dirname "$0")/.."

usage="usage: $0 [--features <feat>] <bench>..."
features=()
if [[ "${1:-}" == "--features" ]]; then
    [[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
    features=(--features "$2")
    shift 2
fi
[[ $# -gt 0 ]] || { echo "$usage" >&2; exit 2; }

# Absolute paths: cargo runs bench binaries from the package directory.
root="$(pwd)/target/smoke"

for bench in "$@"; do
    out="$root/$bench"
    rm -rf "$out"
    mkdir -p "$out/threads1" "$out/default"

    echo "== smoke: $bench ${features[1]:+(features: ${features[1]}) }at BMF_THREADS=1 =="
    BMF_THREADS=1 BMF_BENCH_OUT="$out/threads1" \
        cargo bench --offline --locked -p bmf-bench \
        ${features[@]+"${features[@]}"} --bench "$bench" -- --smoke
    echo "== smoke: $bench ${features[1]:+(features: ${features[1]}) }at the default pool =="
    env -u BMF_THREADS BMF_BENCH_OUT="$out/default" \
        cargo bench --offline --locked -p bmf-bench \
        ${features[@]+"${features[@]}"} --bench "$bench" -- --smoke

    if ! diff -r "$out/threads1" "$out/default" >&2; then
        echo "FAIL: $bench output differs between BMF_THREADS=1 and the default pool" >&2
        exit 1
    fi
    files=$(find "$out/default" -type f | wc -l)
    echo "OK: $bench output byte-identical at BMF_THREADS=1 and the default pool ($files files)"
done
