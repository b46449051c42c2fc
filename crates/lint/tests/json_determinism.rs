//! The JSON reporter is part of the determinism contract: CI may diff
//! report bytes across runs, so the output must be byte-identical for a
//! given workspace state, and the schema is pinned with a golden string.

use bmf_lint::lint_source;
use bmf_lint::report::{human, json};

const SRC: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
const LABEL: &str = "crates/core/src/demo.rs";

#[test]
fn json_bytes_are_identical_across_runs() {
    assert_eq!(
        json(&lint_source(LABEL, SRC)),
        json(&lint_source(LABEL, SRC))
    );
    assert_eq!(
        human(&lint_source(LABEL, SRC)),
        human(&lint_source(LABEL, SRC))
    );
}

#[test]
fn json_matches_pinned_golden() {
    let got = json(&lint_source(LABEL, SRC));
    let want = concat!(
        "{\"version\":2,\"findings\":[",
        "{\"rule\":\"panic-reachability\",\"file\":\"crates/core/src/demo.rs\",",
        "\"line\":2,\"col\":7,",
        "\"message\":\"`.unwrap()` in fitting-stack fn `core::demo::f`; ",
        "return a structured error or handle the failing arm explicitly\",",
        "\"snippet\":\"x.unwrap()\"}",
        "]}\n",
    );
    assert_eq!(got, want);
}

#[test]
fn workspace_json_is_byte_stable() {
    // End-to-end: two full workspace lints render identical JSON bytes
    // (sorted findings, fixed key order, no floats anywhere).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = json(&bmf_lint::lint_workspace(&root).expect("lint"));
    let b = json(&bmf_lint::lint_workspace(&root).expect("lint"));
    assert_eq!(a, b);
}
