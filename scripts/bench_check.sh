#!/usr/bin/env bash
# Regenerates every committed BENCH_<name>.json and fails unless it
# equals its baseline byte for byte.
#
# A report holds only what the code did (counters, byte sizes, seeded
# draws, the results of checks), never a time, so it is a pure function
# of the code: any difference means the work changed. The list is the
# BENCH_*.json files at the repository root, so a new study's report is
# checked from the commit that adds it.
#
# Each report is written twice, at BMF_THREADS=1 and at the default
# pool, into target/bench-check/<name>/{threads1,default}. The two
# directories must be identical (the persist bench's persist-store/
# included), and the report must equal its baseline. BENCH_allocs.json
# comes from `repro allocs` with the counting allocator (`--features
# bench`); every other report from the bench of the same name, at its
# full configuration.
#
# An intended change regenerates the baseline with the same command at
# the repository root (BMF_BENCH_OUT unset writes the committed file),
# and review reads its diff.
#
# Usage: scripts/bench_check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
[[ $# -eq 0 ]] || { echo "usage: $0 (no arguments)" >&2; exit 2; }

# Absolute paths: cargo runs bench binaries from the package directory.
root="$(pwd)/target/bench-check"
fail=0
for baseline in BENCH_*.json; do
    name="${baseline#BENCH_}"
    name="${name%.json}"
    for pool in threads1 default; do
        out="$root/$name/$pool"
        rm -rf "$out"
        mkdir -p "$out"
        if [[ $pool == threads1 ]]; then threads=(BMF_THREADS=1); else threads=(-u BMF_THREADS); fi
        echo "== $name at $pool"
        if [[ $name == allocs ]]; then
            env "${threads[@]}" BMF_BENCH_OUT="$out" cargo run -q --release --offline --locked \
                -p bmf-bench --features bench --bin repro -- allocs --out "$out"
        else
            env "${threads[@]}" BMF_BENCH_OUT="$out" cargo bench -q --offline --locked \
                -p bmf-bench --bench "$name"
        fi
    done
    if ! diff -r "$root/$name/threads1" "$root/$name/default" >&2; then
        echo "FAIL: $name output differs between BMF_THREADS=1 and the default pool" >&2
        fail=1
    fi
    if ! diff -u "$baseline" "$root/$name/default/$baseline" >&2; then
        echo "FAIL: a fresh $baseline differs from the committed one (above)" >&2
        fail=1
    fi
done
[[ $fail -eq 0 ]] || exit 1
echo "OK: every BENCH_*.json regenerates byte-identical at BMF_THREADS=1 and the default pool"
