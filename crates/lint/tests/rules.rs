//! Golden fixture tests: every rule in the catalog has one positive
//! fixture that fires it and one negative fixture that stays completely
//! clean, under `tests/fixtures/<rule>/{pos,neg}.rs`. The path label
//! passed to `lint_source` places each fixture in the crate the rule
//! scopes itself to.

use bmf_lint::lint_source;
use bmf_lint::rules::all_rules;

struct Case {
    rule: &'static str,
    label: &'static str,
    pos: &'static str,
    neg: &'static str,
}

const CASES: &[Case] = &[
    Case {
        rule: "no-float-eq",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/no-float-eq/pos.rs"),
        neg: include_str!("fixtures/no-float-eq/neg.rs"),
    },
    Case {
        rule: "no-partial-cmp-unwrap",
        label: "crates/stat/src/fixture.rs",
        pos: include_str!("fixtures/no-partial-cmp-unwrap/pos.rs"),
        neg: include_str!("fixtures/no-partial-cmp-unwrap/neg.rs"),
    },
    Case {
        rule: "no-lossy-cast-in-kernels",
        label: "crates/linalg/src/fixture.rs",
        pos: include_str!("fixtures/no-lossy-cast-in-kernels/pos.rs"),
        neg: include_str!("fixtures/no-lossy-cast-in-kernels/neg.rs"),
    },
    Case {
        rule: "forbid-unsafe-missing",
        label: "crates/demo/src/lib.rs",
        pos: include_str!("fixtures/forbid-unsafe-missing/pos.rs"),
        neg: include_str!("fixtures/forbid-unsafe-missing/neg.rs"),
    },
    Case {
        rule: "no-nondeterministic-sources",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/no-nondeterministic-sources/pos.rs"),
        neg: include_str!("fixtures/no-nondeterministic-sources/neg.rs"),
    },
    Case {
        rule: "panic-reachability",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/panic-reachability/pos.rs"),
        neg: include_str!("fixtures/panic-reachability/neg.rs"),
    },
    Case {
        rule: "alloc-reachability",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/alloc-reachability/pos.rs"),
        neg: include_str!("fixtures/alloc-reachability/neg.rs"),
    },
    Case {
        rule: "screen-reachability",
        label: "crates/core/src/fusion.rs",
        pos: include_str!("fixtures/screen-reachability/pos.rs"),
        neg: include_str!("fixtures/screen-reachability/neg.rs"),
    },
    Case {
        rule: "durability-ordering",
        label: "crates/persist/src/store.rs",
        pos: include_str!("fixtures/durability-ordering/pos.rs"),
        neg: include_str!("fixtures/durability-ordering/neg.rs"),
    },
    // Not a catalog rule: the scanner itself reports broken suppression
    // comments under this pseudo-rule, so it gets the same golden pair.
    Case {
        rule: "malformed-suppression",
        label: "crates/core/src/fixture.rs",
        pos: include_str!("fixtures/malformed-suppression/pos.rs"),
        neg: include_str!("fixtures/malformed-suppression/neg.rs"),
    },
];

fn case(rule: &str) -> &'static Case {
    CASES
        .iter()
        .find(|c| c.rule == rule)
        .unwrap_or_else(|| panic!("no fixture case for rule `{rule}`"))
}

#[test]
fn every_catalog_rule_has_a_fixture_pair() {
    for rule in all_rules() {
        let id = rule.id();
        let c = case(id);
        assert!(
            !c.pos.is_empty() && !c.neg.is_empty(),
            "empty fixture for `{id}`"
        );
    }
}

#[test]
fn positive_fixtures_fire_their_rule() {
    for c in CASES {
        let findings = lint_source(c.label, c.pos);
        let fired: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(
            fired.contains(&c.rule),
            "pos fixture for `{}` fired {fired:?} but not the rule itself",
            c.rule
        );
        for f in &findings {
            assert!(f.line >= 1 && f.col >= 1, "finding without a span: {f:?}");
            assert!(!f.message.is_empty(), "finding without a message: {f:?}");
        }
    }
}

#[test]
fn negative_fixtures_are_completely_clean() {
    for c in CASES {
        let findings = lint_source(c.label, c.neg);
        assert!(
            findings.is_empty(),
            "neg fixture for `{}` raised findings: {findings:#?}",
            c.rule
        );
    }
}

#[test]
fn rule_scoping_follows_crate_paths() {
    // The same offending source is invisible outside the crates a rule
    // guards: bmf-bench may panic or allocate, and kernel-cast policing
    // is linalg-only.
    for rule in ["panic-reachability", "alloc-reachability"] {
        let src = case(rule).pos;
        assert!(lint_source("crates/bench/src/fixture.rs", src).is_empty());
    }
    let cast_src = case("no-lossy-cast-in-kernels").pos;
    assert!(lint_source("crates/core/src/fixture.rs", cast_src).is_empty());
    // A broken durability corridor outside bmf_persist::store is out of
    // jurisdiction too.
    let durability_src = case("durability-ordering").pos;
    assert!(lint_source("crates/persist/src/vfs.rs", durability_src).is_empty());
}

/// `(line, col)` of every finding `rule` raises on its positive fixture.
fn spans(rule: &str) -> Vec<(u32, u32)> {
    let c = case(rule);
    lint_source(c.label, c.pos)
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn panic_reachability_sees_what_the_token_rule_misses() {
    // The rule reports every panic construct where it is written, as the
    // retired per-file token rule did, whatever the visibility of its fn:
    // a private helper (16), a pub fn (21), `Display::fmt` (32),
    // `Drop::drop` (42) and a `pub(crate)` helper no pub fn calls (47).
    // The entry point `fit` (7), which the token rule could not see, is
    // reported once, at its `fn` line, with the witness chain.
    assert_eq!(
        spans("panic-reachability"),
        vec![(7, 1), (16, 25), (21, 9), (32, 36), (42, 27), (47, 7)]
    );
    let c = case("panic-reachability");
    let findings = lint_source(c.label, c.pos);
    let entry = &findings[0];
    assert_eq!(entry.snippet, "<pub fn core::fixture::fit>");
    assert!(
        entry
            .message
            .contains("core::fixture::fit -> core::fixture::prepare -> core::fixture::head"),
        "witness chain missing: {}",
        entry.message
    );
    assert_eq!(findings[1].snippet, "xs.first().copied().unwrap()");
}

#[test]
fn alloc_reachability_reports_own_and_reached_allocations() {
    // The kernel's own `vec!` at the allocation (8); the kernel that only
    // calls an allocating helper at its `fn` line (14).
    assert_eq!(spans("alloc-reachability"), vec![(8, 15), (14, 1)]);
}

#[test]
fn each_violation_is_reported_once() {
    let label = "crates/core/src/fixture.rs";
    let panics = lint_source(label, "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    assert_eq!(panics.len(), 1, "{panics:#?}");
    assert_eq!((panics[0].line, panics[0].col), (1, 37));
    let allocs = lint_source(
        label,
        "pub fn acc_into(out: &mut [f64]) {\n    let tmp = vec![0.0; 4];\n    out[0] = tmp[0];\n}\n",
    );
    assert_eq!(allocs.len(), 1, "{allocs:#?}");
    assert_eq!(allocs[0].rule, "alloc-reachability");
    assert_eq!((allocs[0].line, allocs[0].col), (2, 15));
}

#[test]
fn durability_fixture_names_both_broken_corridors() {
    let c = case("durability-ordering");
    let findings = lint_source(c.label, c.pos);
    let durability: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "durability-ordering")
        .collect();
    assert_eq!(durability.len(), 2, "{findings:#?}");
    assert!(durability[0].message.contains("without an fsync between"));
    assert!(durability[1].message.contains("before `rewrite_index`"));
}
