//! Virtual-time study of the flow-aware analyzer
//! (`cargo bench -p bmf-bench --bench lint`).
//!
//! Runs the real `bmf-lint` pipeline — workspace discovery, per-file
//! structural models, item parse, call-graph resolution, every file and
//! graph rule, baseline diff — over this repository and writes the
//! deterministic report `BENCH_lint.json` through [`crate::study`].
//!
//! Wall time is machine-dependent, so it is printed to stderr only; the
//! JSON report carries **counters** (files, lines, parsed items, graph
//! nodes/edges by strength, sinks, findings per graph rule, baseline
//! diff buckets) plus a `virtual_ms` charged from the fixed cost model
//! below. Every number is a pure function of the workspace source state,
//! so the report is byte-identical across runs and `BMF_THREADS`
//! settings, and the trend gate (`scripts/bench_trend.sh`) only fires
//! when the analyzer's *work profile* actually changes — e.g. the call
//! graph suddenly doubling, or findings reappearing after the burn-down.
//!
//! The study also re-asserts the burn-down invariant: with
//! [`LintStudyConfig::deny_unbaselined`] set (both scenarios), any
//! unbaselined or stale finding fails the run loudly, mirroring the CI
//! lint job's `--deny-stale`.

use std::path::PathBuf;

use bmf_lint::baseline::{self, BaselineEntry};
use bmf_lint::parse::SinkKind;
use bmf_lint::rules::graph_rules;
use bmf_lint::{analyze_workspace, lint_analysis, Analysis};

use crate::study::{workspace_root, Fixed, ReportWriter};

/// Virtual nanoseconds charged per source line lexed and modeled.
pub const LEX_NS_PER_LINE: u64 = 900;
/// Virtual nanoseconds charged per call site resolved against the
/// workspace name tiers.
pub const RESOLVE_NS_PER_CALL: u64 = 350;
/// Virtual nanoseconds charged per graph edge, per graph rule — the
/// reachability sweeps dominate on dense graphs.
pub const RULE_NS_PER_EDGE: u64 = 60;
/// Virtual nanoseconds charged per finding rendered and diffed.
pub const FINDING_NS: u64 = 2_000;

/// The four flow-aware rules whose per-rule counts are pinned in the
/// report (and therefore trend-gated individually).
pub const GRAPH_RULE_IDS: [&str; 4] = [
    "panic-reachability",
    "alloc-reachability",
    "screen-reachability",
    "durability-ordering",
];

/// Study configuration; use [`LintStudyConfig::full`] or
/// [`LintStudyConfig::smoke`].
#[derive(Debug, Clone)]
pub struct LintStudyConfig {
    /// Workspace root to analyze (defaults to this repository).
    pub root: PathBuf,
    /// Fail the study on any unbaselined or stale finding, mirroring the
    /// CI lint job's `--deny-stale` gate.
    pub deny_unbaselined: bool,
    /// Whether this is the smoke scenario (recorded in the report).
    pub smoke: bool,
}

impl LintStudyConfig {
    /// The full-scale scenario behind the committed `BENCH_lint.json`:
    /// one analysis pass over the workspace.
    pub fn full() -> Self {
        LintStudyConfig {
            root: workspace_root(),
            deny_unbaselined: true,
            smoke: false,
        }
    }

    /// CI smoke scenario: the same pass, recorded as a smoke run.
    pub fn smoke() -> Self {
        LintStudyConfig {
            smoke: true,
            ..LintStudyConfig::full()
        }
    }
}

/// Deterministic counters extracted from one analysis pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintCounters {
    /// Source files analyzed.
    pub files: u64,
    /// Total source lines across those files.
    pub lines: u64,
    /// Parsed function items (call-graph nodes).
    pub fn_items: u64,
    /// Of those, `pub` functions (the roots the reachability rules walk
    /// back to).
    pub pub_fns: u64,
    /// Call sites recorded across all bodies.
    pub call_sites: u64,
    /// Resolved `(caller, callee)` edges (deduplicated).
    pub edges: u64,
    /// Edges from structural resolution (paths, bare names, narrowed
    /// `self.m(..)`).
    pub strong_edges: u64,
    /// Panic-family sinks recorded (before suppression).
    pub panic_sinks: u64,
    /// Allocation sinks recorded (before suppression).
    pub alloc_sinks: u64,
    /// Indexing sinks recorded (off-by-default for reachability).
    pub index_sinks: u64,
    /// VFS operations recorded (the durability automaton's alphabet).
    pub vfs_ops: u64,
    /// Findings that survived suppressions, all rules.
    pub findings_total: u64,
    /// Findings matched (and silenced) by baseline entries.
    pub baselined: u64,
    /// Findings not covered by the baseline.
    pub unbaselined: u64,
    /// Baseline entries whose finding no longer exists.
    pub stale_entries: u64,
    /// Findings per graph rule, in [`GRAPH_RULE_IDS`] order.
    pub per_graph_rule: [u64; 4],
}

impl LintCounters {
    /// Total virtual cost of the pass under the fixed cost model.
    pub fn virtual_ns(&self) -> u64 {
        let rules = graph_rules().len() as u64;
        LEX_NS_PER_LINE * self.lines
            + RESOLVE_NS_PER_CALL * self.call_sites
            + RULE_NS_PER_EDGE * self.edges * rules
            + FINDING_NS * self.findings_total
    }
}

/// Everything one study run produces.
#[derive(Debug, Clone)]
pub struct LintStudyOutcome {
    /// The byte-deterministic report, ready to write to
    /// `BENCH_lint.json`.
    pub json: String,
    /// The extracted counters.
    pub counters: LintCounters,
    /// Virtual analysis time in milliseconds.
    pub virtual_ms: f64,
}

/// Runs the configured study against the real analyzer and returns the
/// deterministic report.
///
/// # Errors
///
/// Returns a description when the workspace cannot be read, the baseline
/// fails to parse, or the burn-down invariant is violated (unbaselined
/// or stale findings under `deny_unbaselined`).
pub fn run_lint_study(cfg: &LintStudyConfig) -> Result<LintStudyOutcome, String> {
    let counters = analyze_once(cfg)?;

    if cfg.deny_unbaselined {
        if counters.unbaselined > 0 {
            return Err(format!(
                "lint study: {} unbaselined finding(s) — the workspace burn-down \
                 invariant is violated; run `cargo run -p bmf-lint -- --root .`",
                counters.unbaselined
            ));
        }
        if counters.stale_entries > 0 {
            return Err(format!(
                "lint study: {} stale baseline entr(ies) — delete them \
                 (`cargo run -p bmf-lint -- --root . --deny-stale` lists each identity)",
                counters.stale_entries
            ));
        }
    }

    Ok(LintStudyOutcome {
        json: render_json(cfg, &counters).map_err(|e| e.to_string())?,
        virtual_ms: counters.virtual_ns() as f64 / 1e6,
        counters,
    })
}

/// One full pipeline pass: discovery, models, parse, graph, rules,
/// baseline diff — reduced to counters.
fn analyze_once(cfg: &LintStudyConfig) -> Result<LintCounters, String> {
    let analysis = analyze_workspace(&cfg.root)?;
    let findings = lint_analysis(&analysis);
    let entries = load_baseline(cfg)?;

    let mut c = count_structure(&analysis);
    c.findings_total = findings.len() as u64;
    for f in &findings {
        for (i, id) in GRAPH_RULE_IDS.iter().enumerate() {
            if f.rule == *id {
                c.per_graph_rule[i] += 1;
            }
        }
    }
    let diff = baseline::diff(findings, &entries);
    c.baselined = diff.baselined as u64;
    c.unbaselined = diff.new.len() as u64;
    c.stale_entries = diff.stale.len() as u64;
    Ok(c)
}

fn load_baseline(cfg: &LintStudyConfig) -> Result<Vec<BaselineEntry>, String> {
    let path = cfg.root.join("lint-baseline.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    baseline::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn count_structure(analysis: &Analysis) -> LintCounters {
    let mut c = LintCounters {
        files: analysis.files.len() as u64,
        ..LintCounters::default()
    };
    for f in &analysis.files {
        c.lines += f.source.text.lines().count() as u64;
    }
    let graph = &analysis.graph;
    c.fn_items = graph.nodes.len() as u64;
    c.edges = graph.edges.len() as u64;
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.is_pub {
            c.pub_fns += 1;
        }
        c.call_sites += n.calls.len() as u64;
        c.vfs_ops += n.vfs_ops.len() as u64;
        c.strong_edges += graph.strong_pred(i).len() as u64;
        for s in &n.sinks {
            match s.kind {
                SinkKind::Panic => c.panic_sinks += 1,
                SinkKind::Alloc => c.alloc_sinks += 1,
                SinkKind::Index => c.index_sinks += 1,
            }
        }
    }
    c
}

fn render_json(cfg: &LintStudyConfig, c: &LintCounters) -> Result<String, bmf_core::BmfError> {
    let virtual_ns = c.virtual_ns();
    let virtual_ms = virtual_ns as f64 / 1e6;
    let files_per_s = c.files as f64 / (virtual_ns.max(1) as f64 / 1e9);

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("smoke", u64::from(cfg.smoke));
        s.field("graph_rules", graph_rules().len());
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
        s.field("index", c.index_sinks);
        s.field("vfs_ops", c.vfs_ops);
    });
    report.section("findings", |s| {
        s.field("total", c.findings_total);
        s.field("baselined", c.baselined);
        s.field("unbaselined", c.unbaselined);
        s.field("stale_entries", c.stale_entries);
    });
    // Rule ids use `-`, which the trend gate cannot parse in a key.
    report.section("rule_findings", |s| {
        for (id, n) in GRAPH_RULE_IDS.iter().zip(c.per_graph_rule) {
            s.field(&id.replace('-', "_"), n);
        }
    });
    report.section("cost_model", |s| {
        s.field("lex_ns_per_line", LEX_NS_PER_LINE);
        s.field("resolve_ns_per_call", RESOLVE_NS_PER_CALL);
        s.field("rule_ns_per_edge", RULE_NS_PER_EDGE);
        s.field("finding_ns", FINDING_NS);
    });
    report.scalar("virtual_ms", Fixed(virtual_ms, 3));
    report.scalar("files_per_s_throughput", Fixed(files_per_s, 1));
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintStudyConfig {
        LintStudyConfig::full()
    }

    #[test]
    fn study_is_byte_deterministic() {
        let a = run_lint_study(&cfg()).expect("study run");
        let b = run_lint_study(&cfg()).expect("study run");
        assert_eq!(a.json, b.json);
    }

    #[test]
    fn workspace_stays_burned_down() {
        // `deny_unbaselined` is on: a new or stale finding fails the run
        // itself, so Ok here certifies the burn-down invariant.
        let out = run_lint_study(&cfg()).expect("workspace must stay clean");
        assert_eq!(out.counters.unbaselined, 0);
        assert_eq!(out.counters.stale_entries, 0);
    }

    #[test]
    fn counters_reflect_a_real_workspace() {
        let out = run_lint_study(&cfg()).expect("study run");
        let c = &out.counters;
        assert!(
            c.files > 20,
            "expected a real workspace, got {} files",
            c.files
        );
        assert!(c.fn_items > 100);
        assert!(c.pub_fns > 0 && c.pub_fns < c.fn_items);
        assert!(c.call_sites > 0);
        assert!(c.edges > 0);
        assert!(
            c.strong_edges <= c.edges,
            "strong edges are a subset of all edges"
        );
        assert!(c.vfs_ops > 0, "the persist store must contribute VFS ops");
        assert!(out.virtual_ms > 0.0);
    }

    #[test]
    fn json_has_the_gated_keys() {
        let out = run_lint_study(&cfg()).expect("study run");
        crate::study::assert_has_keys(
            &out.json,
            "scenario workspace files graph strong_edges sinks findings \
             unbaselined rule_findings panic_reachability durability_ordering \
             cost_model virtual_ms files_per_s_throughput",
        );
    }

    #[test]
    fn cost_model_scales_with_structure() {
        let small = LintCounters {
            lines: 100,
            call_sites: 10,
            edges: 5,
            findings_total: 0,
            ..LintCounters::default()
        };
        let big = LintCounters {
            lines: 200,
            ..small
        };
        assert!(big.virtual_ns() > small.virtual_ns());
    }
}
