//! `bmf-lint`: in-tree static analysis for the BMF workspace.
//!
//! The workspace makes three structural promises — bit-identical results
//! at any thread count, panic-free library code, and zero-allocation
//! `_into`/`_in_place` kernels — that used to be policed by grep lines
//! and scattered clippy attributes. This crate replaces that with a
//! token-level analyzer (no false positives from comments or string
//! literals), a workspace call graph, and one rule engine. Any finding
//! fails the gate: the only way to accept one is an inline suppression
//! next to the code it justifies.
//!
//! Pipeline: [`lexer`] tokenizes, [`scan::FileModel`] models each file in
//! one pass (test spans, inner attributes, suppressions, and the fn items
//! with their calls and sinks), [`callgraph`] resolves a workspace-wide
//! call graph over the items, every [`rules::Rule`] checks the whole
//! [`Analysis`] and produces [`findings::Finding`]s, and [`report`]
//! renders human or JSON output.
//!
//! Inline suppressions take the form
//! `// bmf-lint: allow(<rule>) -- <reason>` on the offending line or the
//! line above; the reason string is mandatory, and a suppression whose
//! removal changes no finding is itself reported.
//!
//! ```
//! use bmf_lint::lint_source;
//!
//! let findings = lint_source(
//!     "crates/core/src/example.rs",
//!     "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "panic-reachability");
//! assert_eq!((findings[0].line, findings[0].col), (1, 33));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scan;
pub mod workspace;

use findings::{line_snippet, Finding};
use rules::all_rules;
use scan::{FileModel, FnItem};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// One source file presented to the rules: its workspace-relative path
/// (rules scope themselves by crate from it) and its full text.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Entire file contents.
    pub text: String,
}

/// The whole-workspace analysis: every file's model plus the call graph
/// over their fn items. Every rule checks this.
pub struct Analysis {
    /// Per-file models, in deterministic (sorted-path) order.
    pub files: Vec<FileModel>,
    /// The workspace call graph; its nodes are the files' fn items, in
    /// file order.
    pub graph: callgraph::CallGraph,
    by_path: BTreeMap<String, usize>,
}

impl Analysis {
    /// Builds the analysis: one model per file, then the call graph.
    pub fn build(sources: Vec<SourceFile>) -> Analysis {
        let mut items = Vec::new();
        let files: Vec<FileModel> = sources
            .into_iter()
            .map(|source| FileModel::build(source, &mut items))
            .collect();
        let by_path = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.source.path.clone(), i))
            .collect();
        Analysis {
            graph: callgraph::CallGraph::build(items),
            files,
            by_path,
        }
    }

    /// The structural model for a workspace-relative path, if analyzed.
    pub fn model_for(&self, path: &str) -> Option<&FileModel> {
        self.by_path.get(path).map(|&i| &self.files[i])
    }

    /// The innermost non-test fn item of `file` whose body contains the
    /// byte offset.
    pub fn enclosing_fn(&self, file: &FileModel, byte: usize) -> Option<&FnItem> {
        // Items are in body-start order, so the innermost enclosing body
        // is the last one starting at or before `byte` that contains it.
        let fns = &self.graph.nodes[file.fns.clone()];
        let upto = fns.partition_point(|f| f.body.0 <= byte);
        fns[..upto].iter().rev().find(|f| byte < f.body.1)
    }
}

/// Runs `rules` over the analysis and drops what a well-formed
/// suppression covers.
fn surviving(analysis: &Analysis, rules: &[&dyn rules::Rule]) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in rules {
        rule.check(analysis, &mut raw);
    }
    raw.into_iter()
        .filter(|fi| {
            !analysis
                .model_for(&fi.file)
                .is_some_and(|m| m.suppressed(&fi.rule, fi.line))
        })
        .collect()
}

/// The well-formed suppressions of `file` (index `fi`) that cover no
/// finding: removing one alone leaves its rule's findings unchanged.
/// Each is checked on its own, never all at once: the reachability rules
/// read suppressions to decide which sinks are live, so a run with every
/// suppression off could drop a root's fn-line finding that a
/// suppression really covers.
fn dead_suppressions(analysis: &Analysis, file: &FileModel) -> Vec<u32> {
    let key = |f: &Finding| (f.sort_key(), f.message.clone());
    let mut dead = Vec::new();
    for (si, s) in file.suppressions.iter().enumerate() {
        let Some(&rule) = all_rules().iter().find(|r| r.id() == s.rule) else {
            continue;
        };
        let with: Vec<_> = surviving(analysis, &[rule]).iter().map(key).collect();
        file.ignored.set(Some(si));
        let without: Vec<_> = surviving(analysis, &[rule]).iter().map(key).collect();
        file.ignored.set(None);
        if with == without {
            dead.push(s.line);
        }
    }
    dead
}

/// Runs every rule over the analysis, applies suppressions, and appends
/// `malformed-suppression` findings: a suppression without its reason,
/// naming an unknown rule, or covering no finding. Sorted by
/// `(file, line, col, rule)`.
pub fn lint_analysis(analysis: &Analysis) -> Vec<Finding> {
    let mut out = surviving(analysis, all_rules());
    for f in &analysis.files {
        let malformed = f
            .malformed
            .iter()
            .map(|m| (m.line, m.col, m.problem.clone()));
        let unknown = f
            .suppressions
            .iter()
            .filter(|s| !all_rules().iter().any(|r| r.id() == s.rule))
            .map(|s| {
                (
                    s.line,
                    1,
                    format!("suppression names unknown rule `{}`", s.rule),
                )
            });
        let dead = dead_suppressions(analysis, f).into_iter().map(|line| {
            let message = "suppression covers no finding: removing it changes nothing";
            (line, 1, message.to_string())
        });
        for (line, col, message) in malformed.chain(unknown).chain(dead) {
            out.push(Finding {
                rule: "malformed-suppression".to_string(),
                file: f.source.path.clone(),
                line,
                col,
                message,
                snippet: line_snippet(&f.source.text, line),
            });
        }
    }
    out.sort_by_key(Finding::sort_key);
    out
}

/// Lints a single file's source text under the given workspace-relative
/// path label. Returns the surviving findings, sorted by
/// `(file, line, col, rule)`: rule output minus well-formed suppressions,
/// plus a `malformed-suppression` finding for every suppression comment
/// that lacks its reason or names an unknown rule. The call-graph rules
/// run over the one-file graph, so fixtures exercise them too.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let analysis = Analysis::build(vec![SourceFile {
        path: path.to_string(),
        text: text.to_string(),
    }]);
    lint_analysis(&analysis)
}

/// Builds the analysis for every library source file in the workspace
/// rooted at `root`.
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable directory
/// or file).
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let files = workspace::collect_sources(root)
        .map_err(|e| format!("cannot enumerate sources under {}: {e}", root.display()))?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let text = fs::read_to_string(root.join(&rel)).map_err(|e| format!("{rel}: {e}"))?;
        sources.push(SourceFile { path: rel, text });
    }
    Ok(Analysis::build(sources))
}

/// Lints every library source file in the workspace rooted at `root`.
/// Findings come back sorted by `(file, line, col, rule)`.
///
/// # Errors
///
/// Returns a description of the first I/O failure (unreadable directory
/// or file).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(lint_analysis(&analyze_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_a_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // bmf-lint: allow(panic-reachability) -- demo\n    x.unwrap()\n}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_rule_suppressions_are_flagged() {
        let src = "// bmf-lint: allow(no-such-rule) -- reason\nfn f() {}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "malformed-suppression");
    }

    #[test]
    fn findings_are_sorted() {
        let src = "fn f(a: Option<u32>, b: f64) -> u32 {\n    if b == 1.0 { return 0; }\n    a.unwrap()\n}\n";
        let findings = lint_source("crates/core/src/example.rs", src);
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert_eq!(findings.len(), 2);
    }
}
