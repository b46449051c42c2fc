#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails when the run
# passed no test at all.
#
# A name filter that matches nothing (say, after the test it pinned was
# renamed) still makes cargo exit 0 with "0 passed". This wrapper sums
# the "N passed" of every "test result:" summary cargo prints and exits
# 1 when the sum is zero, so a pinned filter cannot silently go empty.
# cargo's own exit status is kept: a failing test still fails.
#
# Usage:
#   scripts/cargo_test_nonempty.sh <cargo test arguments...>
# e.g.
#   scripts/cargo_test_nonempty.sh --release -q -p bmf-core --lib hyper::
set -euo pipefail

[[ $# -ge 1 ]] || { echo "usage: $0 <cargo test arguments...>" >&2; exit 2; }

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cargo test "$@" 2>&1 | tee "$log"

passed="$(sed -n 's/^test result: [A-Za-z]*\. \([0-9][0-9]*\) passed.*/\1/p' "$log" |
    awk '{ n += $1 } END { print n + 0 }')"
if [[ "$passed" -eq 0 ]]; then
    echo "FAIL: \`cargo test $*\` ran no test (0 passed): a filter matches nothing" >&2
    exit 1
fi
echo "ok: \`cargo test $*\` passed $passed test(s)" >&2
