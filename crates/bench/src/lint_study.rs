//! Deterministic study of the flow-aware analyzer, the study behind
//! `BENCH_lint.json`.
//!
//! Runs the real `bmf-lint` pipeline — workspace discovery, one
//! structural model per file, call-graph resolution, every catalog rule —
//! over this repository and renders the deterministic report through
//! [`crate::study`].
//!
//! The report carries **counters** (files, lines, fn items, graph
//! nodes/edges by strength, sinks, findings per catalog rule), never a
//! time. Every number is a pure function of the workspace source state,
//! so the report is byte-identical across runs and `BMF_THREADS`
//! settings. Any edit under `crates/*/src` moves its file, line and
//! call-graph counts, so such a change regenerates the committed report.
//!
//! Any finding fails the study, as it fails the CI lint job.

use std::path::PathBuf;

use bmf_lint::rules::all_rules;
use bmf_lint::scan::SinkKind;
use bmf_lint::{analyze_workspace, lint_analysis, Analysis};

use crate::study::ReportWriter;

/// Study configuration; use [`LintStudyConfig::full`].
#[derive(Debug, Clone)]
pub struct LintStudyConfig {
    /// Workspace root to analyze.
    pub root: PathBuf,
}

impl LintStudyConfig {
    /// The scenario behind the committed `BENCH_lint.json`: one
    /// analysis pass over the workspace this crate was built in, found
    /// at compile time, so the run does not depend on its working
    /// directory.
    pub fn full() -> Self {
        LintStudyConfig {
            root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
        }
    }
}

/// Deterministic counters extracted from one analysis pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LintCounters {
    /// Source files analyzed.
    files: u64,
    /// Total source lines across those files.
    lines: u64,
    /// Fn items (call-graph nodes).
    fn_items: u64,
    /// Of those, `pub` functions (the roots `panic-reachability` walks
    /// back to).
    pub_fns: u64,
    /// Call sites recorded across all bodies.
    call_sites: u64,
    /// Resolved `(caller, callee)` edges (deduplicated).
    edges: u64,
    /// Edges from structural resolution (paths, bare names, narrowed
    /// `self.m(..)`).
    strong_edges: u64,
    /// Panic-family sinks recorded (before suppression).
    panic_sinks: u64,
    /// Allocation sinks recorded (before suppression).
    alloc_sinks: u64,
    /// VFS operations recorded (the durability automaton's alphabet).
    vfs_ops: u64,
    /// Findings per catalog rule, in catalog order.
    rule_findings: Vec<u64>,
}

/// Runs the configured study against the real analyzer and returns the
/// deterministic report, `BENCH_lint.json` at [`LintStudyConfig::full`].
///
/// # Errors
///
/// Returns a description when the workspace cannot be read or any rule
/// reports a finding.
pub fn run_lint_study(cfg: &LintStudyConfig) -> Result<String, String> {
    let analysis = analyze_workspace(&cfg.root)?;
    let findings = lint_analysis(&analysis);
    let mut c = count_structure(&analysis);
    c.rule_findings = all_rules()
        .iter()
        .map(|r| findings.iter().filter(|f| f.rule == r.id()).count() as u64)
        .collect();
    if !findings.is_empty() {
        let by_rule: Vec<String> = all_rules()
            .iter()
            .zip(&c.rule_findings)
            .filter(|(_, &n)| n > 0)
            .map(|(r, n)| format!("{}: {n}", r.id()))
            .collect();
        return Err(format!(
            "lint study: {} finding(s) ({}) — the workspace must lint clean; \
             run `cargo run -p bmf-lint -- --root .`",
            findings.len(),
            by_rule.join(", ")
        ));
    }
    render_json(&c).map_err(|e| e.to_string())
}

fn count_structure(analysis: &Analysis) -> LintCounters {
    let graph = &analysis.graph;
    let mut c = LintCounters {
        files: analysis.files.len() as u64,
        fn_items: graph.nodes.len() as u64,
        edges: graph.edges.len() as u64,
        ..LintCounters::default()
    };
    for f in &analysis.files {
        c.lines += f.source.text.lines().count() as u64;
    }
    for (i, n) in graph.nodes.iter().enumerate() {
        c.pub_fns += u64::from(n.is_pub);
        c.call_sites += n.calls.len() as u64;
        c.vfs_ops += n.vfs_ops.len() as u64;
        c.strong_edges += graph.strong_pred(i).len() as u64;
        for s in &n.sinks {
            match s.kind {
                SinkKind::Panic => c.panic_sinks += 1,
                SinkKind::Alloc => c.alloc_sinks += 1,
            }
        }
    }
    c
}

fn render_json(c: &LintCounters) -> Result<String, bmf_core::BmfError> {
    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("rules", all_rules().len());
    });
    report.section("workspace", |s| {
        s.field("files", c.files);
        s.field("lines", c.lines);
        s.field("fn_items", c.fn_items);
        s.field("pub_fns", c.pub_fns);
        s.field("call_sites", c.call_sites);
    });
    report.section("graph", |s| {
        s.field("nodes", c.fn_items);
        s.field("edges", c.edges);
        s.field("strong_edges", c.strong_edges);
        s.field("weak_edges", c.edges - c.strong_edges);
    });
    report.section("sinks", |s| {
        s.field("panic", c.panic_sinks);
        s.field("alloc", c.alloc_sinks);
        s.field("vfs_ops", c.vfs_ops);
    });
    // Rule ids use `-`, which a report key cannot hold.
    report.section("rule_findings", |s| {
        for (rule, n) in all_rules().iter().zip(&c.rule_findings) {
            s.field(&rule.id().replace('-', "_"), n);
        }
    });
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::counter;

    fn cfg() -> LintStudyConfig {
        LintStudyConfig::full()
    }

    #[test]
    fn study_is_byte_deterministic() {
        let a = run_lint_study(&cfg()).expect("study run");
        let b = run_lint_study(&cfg()).expect("study run");
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_stays_burned_down() {
        // Any finding fails the run itself, so Ok here certifies that the
        // workspace lints clean under every catalog rule.
        let json = run_lint_study(&cfg()).expect("workspace must stay clean");
        let findings: Vec<u64> = all_rules()
            .iter()
            .map(|rule| counter(&json, &rule.id().replace('-', "_")))
            .collect();
        assert_eq!(findings, vec![0; all_rules().len()]);
    }

    #[test]
    fn a_finding_fails_the_study() {
        let root = std::env::temp_dir().join(format!("bmf-lint-study-{}", std::process::id()));
        let src = root.join("crates/core/src");
        std::fs::create_dir_all(&src).expect("create temp workspace");
        std::fs::write(
            src.join("lib.rs"),
            "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )
        .expect("write temp source");
        let cfg = LintStudyConfig { root: root.clone() };
        let outcome = run_lint_study(&cfg);
        let _ = std::fs::remove_dir_all(&root);
        let err = outcome.expect_err("a finding must fail the study");
        assert!(
            err.contains("1 finding(s) (panic-reachability: 1)"),
            "{err}"
        );
    }

    #[test]
    fn counters_reflect_a_real_workspace() {
        let json = run_lint_study(&cfg()).expect("study run");
        let c = |key| counter(&json, key);
        assert!(
            c("files") > 20,
            "expected a real workspace, got {} files",
            c("files")
        );
        assert!(c("fn_items") > 100);
        assert!(c("pub_fns") > 0 && c("pub_fns") < c("fn_items"));
        assert!(c("call_sites") > 0);
        assert!(c("edges") > 0);
        assert!(
            c("strong_edges") <= c("edges"),
            "strong edges are a subset of all edges"
        );
        assert!(
            c("vfs_ops") > 0,
            "the persist store must contribute VFS ops"
        );
    }

    #[test]
    fn json_has_the_gated_keys() {
        let json = run_lint_study(&cfg()).expect("study run");
        crate::study::assert_has_keys(
            &json,
            "scenario rules workspace files graph strong_edges sinks alloc \
             rule_findings no_float_eq panic_reachability alloc_reachability \
             screen_reachability durability_ordering",
        );
    }
}
