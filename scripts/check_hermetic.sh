#!/usr/bin/env bash
# Enforces the zero-external-dependency policy (see README "Hermetic build
# & reproducibility"): every dependency of every crate must be a path
# dependency on a workspace member, and the committed Cargo.lock must not
# reference any registry or git source.
#
# Run from the repository root:  scripts/check_hermetic.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

# --- 1. Cargo.lock: committed, and free of registry/git sources -----------
if [[ ! -f Cargo.lock ]]; then
    echo "FAIL: Cargo.lock is missing (it must be committed)" >&2
    fail=1
elif grep -nE '^source *= *"(registry|git)' Cargo.lock; then
    echo "FAIL: Cargo.lock references non-path package sources (above)" >&2
    fail=1
fi

# --- 2. Cargo.toml dependency sections: path/workspace entries only -------
# Inside any `*dependencies*` section (inline `[dependencies]` entries or
# table form `[dependencies.name]`), an entry must either point at a path
# under crates/ or inherit such an entry via `.workspace = true`. Version,
# git, and registry requirements are rejected outright.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    bad=$(awk '
        /^[[:space:]]*\[/ {
            dep = ($0 ~ /dependencies/)
            next
        }
        dep && NF && $0 !~ /^[[:space:]]*#/ {
            # Registry/git requirement keys are never allowed.
            if ($0 ~ /^[[:space:]]*(version|git|registry|branch|tag|rev) *=/) {
                printf "%d: %s\n", NR, $0
                next
            }
            # Inline entries (name = "1.0" or name = { ... }) must carry a
            # workspace path. Non-entry keys (features, optional, ...) pass.
            if ($0 ~ /= *("|\{)/ &&
                $0 !~ /path *= *"crates\// && $0 !~ /\.workspace *= *true/)
                printf "%d: %s\n", NR, $0
        }
    ' "$manifest")
    if [[ -n "$bad" ]]; then
        echo "FAIL: non-path dependency in $manifest:" >&2
        echo "$bad" >&2
        fail=1
    fi
done

# --- 3. Invariant lint: bmf-lint over the whole workspace ------------------
# Replaces the old awk panic-scan with the token-level in-tree linter
# (crates/lint). It enforces panic-freedom of the fitting stack plus the
# determinism, float-comparison, cast, allocation, and screening rules
# described in DESIGN.md §11 and §16. Any finding fails; an inline
# `// bmf-lint: allow(<rule>) -- <reason>` is the only way to accept one.
if ! cargo run -q -p bmf-lint --offline --locked -- --root .; then
    echo "FAIL: bmf-lint reported findings (above)" >&2
    fail=1
fi

if [[ $fail -ne 0 ]]; then
    echo "hermeticity check FAILED" >&2
    exit 1
fi
echo "hermeticity check passed: all dependencies are in-tree path deps"
