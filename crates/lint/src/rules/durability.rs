//! `durability-ordering`: PR 9's write-ahead protocol as a checked
//! partial order over VFS operations.
//!
//! `ArtifactStore` mutations promise crash consistency through a fixed
//! corridor: new bytes go to a tmp file, the tmp is fsynced, renamed
//! over the target, and the directory fsynced; index appends are fsynced
//! before the publication counts; and compaction GC runs strictly after
//! the rewritten index is durable. This rule replays every function in
//! `bmf_persist::store` as a token-ordered sequence of
//! `vfs.<op>(<file>, ..)` events and checks four orderings:
//!
//! 1. a `write(x)` followed by `rename(x, _)` must have `sync_file(x)`
//!    between them (no rename of un-fsynced bytes);
//! 2. every `rename` must be followed by a `sync_dir` (the rename itself
//!    must become durable);
//! 3. every `append(x)` must be followed by `sync_file(x)` (the commit
//!    point is the fsync, not the append);
//! 4. in a function that calls `rewrite_index`, no `remove`/
//!    `remove_blob` may precede that call (GC only after the new index
//!    is durable).
//!
//! The checks are per-function and label-based (the first argument's
//! identifier), which matches how `store.rs` is written; a protocol
//! split across helpers is checked where its events actually occur.

use super::Rule;
use crate::findings::Finding;
use crate::scan::{Callee, FnItem};
use crate::Analysis;

/// See the module docs.
pub struct DurabilityOrdering;

/// The store module this rule polices.
const STORE_FILE: &str = "crates/persist/src/store.rs";

fn push(out: &mut Vec<Finding>, node: &FnItem, line: u32, snippet: String, message: String) {
    out.push(Finding {
        rule: "durability-ordering".to_string(),
        file: node.file.clone(),
        line,
        col: 1,
        message,
        snippet,
    });
}

fn check_fn(node: &FnItem, out: &mut Vec<Finding>) {
    let ops = &node.vfs_ops;
    // 1. write → [sync_file] → rename, per label.
    for (ri, r) in ops.iter().enumerate() {
        if r.op != "rename" {
            continue;
        }
        let Some(wi) = ops[..ri]
            .iter()
            .rposition(|o| o.op == "write" && o.arg == r.arg)
        else {
            continue;
        };
        let synced = ops[wi + 1..ri]
            .iter()
            .any(|o| o.op == "sync_file" && o.arg == r.arg);
        if !synced {
            push(
                out,
                node,
                r.line,
                format!("<vfs rename {} in {}>", r.arg, node.name),
                format!(
                    "`{}` renames `{}` without an fsync between the write and the \
                     rename; a crash can publish torn bytes",
                    node.name, r.arg
                ),
            );
        }
    }
    // 2. rename → sync_dir.
    for (ri, r) in ops.iter().enumerate() {
        if r.op != "rename" {
            continue;
        }
        let dir_synced = ops[ri + 1..].iter().any(|o| o.op == "sync_dir");
        if !dir_synced {
            push(
                out,
                node,
                r.line,
                format!("<vfs rename-undurable {} in {}>", r.arg, node.name),
                format!(
                    "`{}` renames `{}` but never fsyncs the directory; the rename \
                     itself can be lost in a crash",
                    node.name, r.arg
                ),
            );
        }
    }
    // 3. append → sync_file, per label.
    for (ai, a) in ops.iter().enumerate() {
        if a.op != "append" {
            continue;
        }
        let synced = ops[ai + 1..]
            .iter()
            .any(|o| o.op == "sync_file" && o.arg == a.arg);
        if !synced {
            push(
                out,
                node,
                a.line,
                format!("<vfs append {} in {}>", a.arg, node.name),
                format!(
                    "`{}` appends to `{}` without a following fsync; the commit \
                     point is the fsync, not the append",
                    node.name, a.arg
                ),
            );
        }
    }
    // 4. GC strictly after the rewritten index is durable.
    let rewrite_ci = node.calls.iter().find_map(|c| {
        let name = match &c.callee {
            Callee::Path(segs) => segs.last().map(String::as_str).unwrap_or(""),
            Callee::Method { name, .. } => name.as_str(),
        };
        (name == "rewrite_index").then_some(c.ci)
    });
    if let Some(rw_ci) = rewrite_ci {
        let early_remove = ops
            .iter()
            .find(|o| o.op == "remove" && o.ci < rw_ci)
            .map(|o| (o.line, o.arg.clone()))
            .or_else(|| {
                node.calls.iter().find_map(|c| {
                    let is_remove_blob = matches!(
                        &c.callee,
                        Callee::Method { name, .. } if name == "remove_blob"
                    ) || matches!(
                        &c.callee,
                        Callee::Path(segs) if segs.last().is_some_and(|s| s == "remove_blob")
                    );
                    (is_remove_blob && c.ci < rw_ci).then(|| (c.line, "blob".to_string()))
                })
            });
        if let Some((line, what)) = early_remove {
            push(
                out,
                node,
                line,
                format!("<gc-before-index {} in {}>", what, node.name),
                format!(
                    "`{}` removes `{}` before `rewrite_index` makes the new index \
                     durable; a crash leaves a dangling index entry",
                    node.name, what
                ),
            );
        }
    }
}

impl Rule for DurabilityOrdering {
    fn id(&self) -> &'static str {
        "durability-ordering"
    }

    fn describe(&self) -> &'static str {
        "bmf_persist::store VFS ops must follow write -> fsync -> rename -> dir-fsync, GC last"
    }

    fn explain(&self) -> &'static str {
        "Encodes PR 9's crash-consistency protocol as a checked partial order over \
         the `vfs.<op>(..)` sequence of every function in `bmf_persist::store`: a \
         written file must be fsynced before it is renamed into place; every rename \
         must be followed by a directory fsync; every index append must be followed \
         by a file fsync (the fsync is the commit point); and in functions that call \
         `rewrite_index`, nothing may be removed before the rewritten index is \
         durable (GC strictly after). The checks are token-ordered and per-function, \
         keyed by the first-argument identifier, matching how `store.rs` names its \
         corridors (`tmp`, `intent`, `index`)."
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        for node in &analysis.graph.nodes {
            if node.file != STORE_FILE {
                continue;
            }
            check_fn(node, out);
        }
    }
}
