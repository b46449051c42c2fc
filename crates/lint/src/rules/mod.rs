//! The rule catalog.
//!
//! Every rule implements [`Rule`] and checks the whole
//! [`crate::Analysis`]: token-pattern rules walk each file's
//! [`FileModel`], flow-aware rules walk the workspace call graph and
//! catch violations that cross function and crate boundaries. Rules are
//! scoped by crate (derived from the workspace-relative path): the
//! fitting-stack guarantees apply to the library crates, the determinism
//! rules additionally police `bmf-lint` itself, and the tool crate
//! `bmf-bench` is exempt from panic-freedom (benchmark binaries may
//! abort).

pub mod durability;
pub mod float_eq;
pub mod forbid_unsafe;
pub mod lossy_cast;
pub mod nondet;
pub mod partial_cmp;
pub mod screen_reach;

use crate::findings::{line_snippet, Finding};
use crate::lexer::{Token, TokenKind};
use crate::reach::{ALLOC_REACHABILITY, PANIC_REACHABILITY};
use crate::scan::FileModel;
use crate::Analysis;

/// A lint rule: an identifier plus a check over the whole analysis.
pub trait Rule {
    /// The rule's stable name, as used in suppressions.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules` and the docs.
    fn describe(&self) -> &'static str;
    /// Long-form description for `--explain <rule>`.
    fn explain(&self) -> &'static str {
        self.describe()
    }
    /// Appends findings over the whole analysis to `out`.
    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>);
}

/// Every rule, in catalog order.
pub fn all_rules() -> &'static [&'static dyn Rule] {
    &[
        &float_eq::NoFloatEq,
        &partial_cmp::NoPartialCmpUnwrap,
        &lossy_cast::NoLossyCastInKernels,
        &forbid_unsafe::ForbidUnsafeMissing,
        &nondet::NoNondeterministicSources,
        &PANIC_REACHABILITY,
        &ALLOC_REACHABILITY,
        &screen_reach::ScreenReachability,
        &durability::DurabilityOrdering,
    ]
}

/// The long-form description for `--explain <rule>`, if the rule exists.
pub fn explain_rule(id: &str) -> Option<String> {
    all_rules()
        .iter()
        .find(|r| r.id() == id)
        .map(|r| format!("{}\n\n{}\n", r.describe(), r.explain()))
}

/// Crates carrying the panic-free / screened fitting-stack guarantees.
/// `root` is the umbrella crate at `src/`.
pub(crate) const FITTING_CRATES: &[&str] = &[
    "basis", "circuits", "core", "linalg", "persist", "stat", "root",
];

/// Crates whose outputs must be bit-reproducible — the fitting stack plus
/// the lint itself (its reports are diffed byte-for-byte in CI).
pub(crate) const DETERMINISM_CRATES: &[&str] = &[
    "basis", "circuits", "core", "linalg", "persist", "stat", "root", "lint",
];

/// Maps a workspace-relative path to its crate short name:
/// `crates/core/src/x.rs` → `core`, `src/lib.rs` → `root`.
pub(crate) fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if path.starts_with("src/") {
        return Some("root");
    }
    None
}

/// True when `path` belongs to one of `crates`.
pub(crate) fn in_crates(path: &str, crates: &[&str]) -> bool {
    crate_of(path).is_some_and(|c| crates.contains(&c))
}

/// The analyzed files belonging to one of `crates`.
pub(crate) fn files_in<'a>(
    analysis: &'a Analysis,
    crates: &'a [&str],
) -> impl Iterator<Item = &'a FileModel> + 'a {
    analysis
        .files
        .iter()
        .filter(move |f| in_crates(&f.source.path, crates))
}

/// Builds a finding at `tok`, filling in the snippet from the source.
pub(crate) fn finding_at(
    rule: &'static str,
    file: &FileModel,
    tok: &Token,
    message: String,
) -> Finding {
    Finding {
        rule: rule.to_string(),
        file: file.source.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: line_snippet(&file.source.text, tok.line),
    }
}

/// Yields each code-index whose token is an identifier equal to `word`,
/// skipping test spans.
pub(crate) fn each_nontest_ident<'m>(
    file: &'m FileModel,
    word: &'m str,
) -> impl Iterator<Item = usize> + 'm {
    (0..file.code.len()).filter(move |&ci| {
        file.text(ci) == word
            && file
                .tok(ci)
                .is_some_and(|t| t.kind == TokenKind::Ident && !file.in_test(t.start))
    })
}
