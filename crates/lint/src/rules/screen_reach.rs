//! `screen-reachability`: flow-aware boundary-screening enforcement,
//! replacing the per-file `screen-before-math` heuristic.
//!
//! PR 4's discipline: every public fallible entry point screens its
//! inputs (`bmf_core::screen`) before any arithmetic can smear a NaN
//! through a factorization. The old rule only saw arithmetic written in
//! the entry function itself, so `pub fn fit(..) { mul_into(..) }` —
//! which hands unscreened data straight to a kernel — passed. This rule
//! walks the function body in token order and requires a *screening
//! event* before the first *blocking event*:
//!
//! - screening events: a direct `screen::..(..)` call, or a call whose
//!   every resolved target is itself screens-from-entry (SFE — computed
//!   as a monotone fixpoint over the call graph, so delegation through a
//!   screened helper is recognized at any depth);
//! - blocking events: arithmetic in the function's own body (only when
//!   the signature mentions `f64` — integer bookkeeping is not math),
//!   or a call to a kernel (`*_into`/`*_in_place`).
//!
//! The walk is token-ordered, not path-sensitive: a screen call inside
//! one `if` arm counts for the whole body (DESIGN.md §16 records this
//! as the rule's main approximation).

use super::Rule;
use crate::findings::Finding;
use crate::scan::{Callee, FnItem};
use crate::Analysis;

/// See the module docs.
pub struct ScreenReachability;

/// The modules whose `pub fn`s are user-facing entry points, as full
/// workspace-relative paths — PR 7 extended the discipline beyond
/// `bmf_core` to the persistence boundary, where bytes from disk enter
/// the model registry, and PR 9 to the chaos VFS and fsck layers,
/// where simulated-disk bytes and repair decisions do.
pub(crate) const ENTRY_MODULES: &[&str] = &[
    "crates/core/src/fusion.rs",
    "crates/core/src/batch.rs",
    "crates/core/src/map_estimate.rs",
    "crates/core/src/least_squares.rs",
    "crates/core/src/lasso.rs",
    "crates/core/src/omp.rs",
    "crates/core/src/hyper.rs",
    "crates/core/src/sequential.rs",
    "crates/core/src/applications.rs",
    "crates/core/src/service.rs",
    "crates/core/src/snapshot.rs",
    "crates/persist/src/artifact.rs",
    "crates/persist/src/store.rs",
    "crates/persist/src/vfs.rs",
    "crates/persist/src/fsck.rs",
];

fn is_kernel_name(name: &str) -> bool {
    name.ends_with("_into") || name.ends_with("_in_place")
}

fn call_name(callee: &Callee) -> &str {
    match callee {
        Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
        Callee::Method { name, .. } => name.as_str(),
    }
}

fn is_direct_screen(callee: &Callee) -> bool {
    match callee {
        Callee::Path(segs) => segs.len() >= 2 && segs[segs.len() - 2] == "screen",
        Callee::Method { .. } => false,
    }
}

/// What the token-ordered walk of one function body concludes.
enum Walk {
    /// A screening event came first (or via an SFE callee).
    Screened,
    /// A blocking event came first; the payload describes it.
    Blocked(String),
    /// Neither kind of event occurs: a pure delegator, exempt.
    Neutral,
}

/// Walks `node`'s body events in token order against the current SFE
/// set.
fn walk(analysis: &Analysis, idx: usize, sfe: &[bool]) -> Walk {
    let node: &FnItem = &analysis.graph.nodes[idx];
    let math_ci = if node.sig_f64 {
        node.first_math_ci
    } else {
        None
    };
    let mut call_cursor = 0usize;
    // Merge the math event into the ordered call stream.
    loop {
        let next_call = node.calls.get(call_cursor);
        let call_ci = next_call.map(|c| c.ci);
        match (math_ci, call_ci) {
            (Some(m), Some(c)) if m < c => {
                return Walk::Blocked("performs arithmetic".to_string());
            }
            (Some(_), None) => {
                return Walk::Blocked("performs arithmetic".to_string());
            }
            (_, Some(_)) => {
                let call = &node.calls[call_cursor];
                call_cursor += 1;
                if is_direct_screen(&call.callee) {
                    return Walk::Screened;
                }
                let name = call_name(&call.callee);
                if is_kernel_name(name) {
                    return Walk::Blocked(format!("calls kernel `{name}`"));
                }
                let targets = analysis.graph.call_targets(idx, call_cursor - 1);
                if !targets.is_empty() && targets.iter().all(|&t| sfe[t]) {
                    return Walk::Screened;
                }
            }
            (None, None) => return Walk::Neutral,
        }
    }
}

/// Computes the screens-from-entry set: the least fixpoint of "first
/// relevant event is a screen (directly or through an SFE callee)".
fn compute_sfe(analysis: &Analysis) -> Vec<bool> {
    let n = analysis.graph.nodes.len();
    let mut sfe = vec![false; n];
    // Monotone: bits only turn on, so at most n productive rounds.
    for _ in 0..=n {
        let mut changed = false;
        for i in 0..n {
            if sfe[i] {
                continue;
            }
            if matches!(walk(analysis, i, &sfe), Walk::Screened) {
                sfe[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    sfe
}

impl Rule for ScreenReachability {
    fn id(&self) -> &'static str {
        "screen-reachability"
    }

    fn describe(&self) -> &'static str {
        "entry-point fns (core + persist) must screen inputs before arithmetic or kernel calls"
    }

    fn explain(&self) -> &'static str {
        "Public fallible functions in the entry-point modules must reach a \
         `screen::` call before the first arithmetic operation or kernel \
         (`*_into`/`*_in_place`) call in their body. Unlike the retired \
         `screen-before-math` rule, delegation counts: a call whose every resolved \
         target itself screens-from-entry satisfies the requirement (computed as a \
         fixpoint over the call graph), and handing unscreened data straight to a \
         kernel is a violation even if the entry function does no arithmetic of its \
         own. Arithmetic only counts in functions whose signature mentions `f64`; \
         pure delegators with no blocking events are exempt. The body walk is \
         token-ordered, not path-sensitive."
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        let sfe = compute_sfe(analysis);
        for (i, n) in analysis.graph.nodes.iter().enumerate() {
            if !ENTRY_MODULES.contains(&n.file.as_str()) || !n.is_pub || !n.returns_result {
                continue;
            }
            if sfe[i] {
                continue;
            }
            let Walk::Blocked(what) = walk(analysis, i, &sfe) else {
                continue;
            };
            out.push(Finding {
                rule: self.id().to_string(),
                file: n.file.clone(),
                line: n.line,
                col: 1,
                message: format!(
                    "public entry point `{}` {what} before any `screen::` call reaches \
                     its inputs; screen first so NaN/\u{221e} fail as structured errors, \
                     not poisoned math",
                    n.name
                ),
                snippet: format!("<entry point fn {}>", n.name),
            });
        }
    }
}
