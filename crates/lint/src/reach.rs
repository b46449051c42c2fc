//! Reachability over the call graph, and the two rules built on it:
//! `panic-reachability` and `alloc-reachability`.
//!
//! The engine is a multi-source reverse BFS to a sink set, with a
//! deterministic witness successor per node, so every finding can print
//! one concrete call chain. The two rules are one body, [`ReachRule`],
//! parameterized by sink kind, edge set, scope and root predicate. Each
//! reports two kinds of finding, so a violation is reported once:
//!
//! - **own sink**: every live sink in the body of a function whose own
//!   sinks count (any in-scope fn for panics, a kernel for allocations),
//!   at the sink's line and column;
//! - **through calls**: a root (a `pub fn`, or a kernel) with no live sink
//!   of its own that reaches one through calls, at its `fn` line, with
//!   the witness chain in the message.
//!
//! A sink is live unless an inline suppression for the rule covers its
//! line; suppressing at a root's `fn` line accepts that root's
//! through-calls finding only. Sinks outside fn bodies (constant
//! initializers) are out of scope.

use crate::callgraph::CallGraph;
use crate::findings::{line_snippet, Finding};
use crate::rules::{in_crates, Rule, FITTING_CRATES};
use crate::scan::{FnItem, Sink, SinkKind};
use crate::Analysis;

/// Which edges a reverse BFS traverses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EdgeSet {
    /// Every resolved edge, including weak plain-method fan-out.
    All,
    /// Strong edges only: path calls, bare calls, impl-narrowed
    /// `self.m(..)` calls.
    Strong,
}

/// The result of a reverse BFS from a sink set.
pub struct Reachability {
    /// `dist[i]` = edge count of the shortest path from node `i` to any
    /// sink, `None` when no sink is reachable. Sinks themselves are `0`.
    pub dist: Vec<Option<u32>>,
    /// `next[i]` = the successor on one shortest path (the
    /// lowest-indexed among equally short ones); `None` at sinks and
    /// unreachable nodes.
    pub next: Vec<Option<usize>>,
}

/// Runs a reverse BFS from every node with `is_sink[i]`, traversing only
/// nodes with `allowed[i]` (a sink outside the allowed set is ignored)
/// and only the edges selected by `edges`.
/// Deterministic: seeds and predecessor scans run in node-index order.
pub fn to_sinks(
    graph: &CallGraph,
    is_sink: &[bool],
    allowed: &[bool],
    edges: EdgeSet,
) -> Reachability {
    let n = graph.nodes.len();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut frontier: Vec<usize> = (0..n).filter(|&i| is_sink[i] && allowed[i]).collect();
    for &i in &frontier {
        dist[i] = Some(0);
    }
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        let mut nextier: Vec<usize> = Vec::new();
        for &v in &frontier {
            let preds = match edges {
                EdgeSet::All => graph.pred(v),
                EdgeSet::Strong => graph.strong_pred(v),
            };
            for &u in preds {
                if allowed[u] && dist[u].is_none() {
                    dist[u] = Some(d);
                    next[u] = Some(v);
                    nextier.push(u);
                }
            }
        }
        nextier.sort_unstable();
        nextier.dedup();
        frontier = nextier;
    }
    Reachability { dist, next }
}

impl Reachability {
    /// The witness call chain from `root` to the sink it reaches, as
    /// node indices starting with `root`. Empty when `root` reaches no
    /// sink.
    pub fn witness(&self, root: usize) -> Vec<usize> {
        if self.dist[root].is_none() {
            return Vec::new();
        }
        let mut out = vec![root];
        let mut cur = root;
        while let Some(n) = self.next[cur] {
            out.push(n);
            cur = n;
            if out.len() > self.dist.len() {
                break; // cycle guard; cannot happen on BFS trees
            }
        }
        out
    }
}

/// A reachability rule; see the module docs.
pub struct ReachRule {
    id: &'static str,
    describe: &'static str,
    explain: &'static str,
    kind: SinkKind,
    edges: EdgeSet,
    /// Fns the rule sees: traversal neither enters nor reports outside.
    in_scope: fn(&FnItem) -> bool,
    /// Fns whose own live sinks are findings.
    owns: fn(&FnItem) -> bool,
    /// Fns reported when they reach a sink only through calls.
    is_root: fn(&FnItem) -> bool,
    /// What an own-sink finding calls its fn, and the fix it suggests.
    owner: &'static str,
    advice: &'static str,
    /// What a through-calls finding calls its root.
    root: &'static str,
}

/// The fitting stack promises "structured error or degraded `Ok`, never a
/// panic" (DESIGN.md §10).
pub const PANIC_REACHABILITY: ReachRule = ReachRule {
    id: "panic-reachability",
    describe: "panic constructs in fitting-stack fns, and pub fns reaching one through calls",
    explain: "The fitting stack promises `structured error or degraded Ok, never a panic` \
              (DESIGN.md §10). Every `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`.unwrap()`/\
              `.expect()` in a non-test fitting-crate fn is reported where it is written, \
              whatever the fn's visibility (trait impls such as `Display::fmt` and \
              `Drop::drop` included). Every `pub fn` with no panic construct of its own \
              that reaches one through the workspace call graph is reported at its `fn` \
              line with one concrete call chain. Traversal follows every edge: weak \
              method fan-out is how trait dispatch like `.evaluate(..)` is caught. An \
              inline suppression on the sink line neutralizes the sink for every caller; \
              one on a `pub fn` line accepts that entry point only. The graph \
              over-approximates method calls, so treat a through-calls finding as \
              `possibly panics` and fix or justify rather than ignore.",
    kind: SinkKind::Panic,
    edges: EdgeSet::All,
    in_scope: |n| in_crates(&n.file, FITTING_CRATES),
    owns: |_| true,
    is_root: |n| n.is_pub,
    owner: "fitting-stack fn",
    advice: "return a structured error or handle the failing arm explicitly",
    root: "pub fn",
};

/// `*_into`/`*_in_place` kernels and `GrowingCholesky` (the streaming
/// engine's row-growth factor) write into caller-provided storage and
/// allocate nothing (DESIGN.md §9).
pub const ALLOC_REACHABILITY: ReachRule = ReachRule {
    id: "alloc-reachability",
    describe: "allocations in zero-allocation kernels (*_into/*_in_place/GrowingCholesky), \
               direct or through calls",
    explain: "`*_into`/`*_in_place` functions and `GrowingCholesky` methods advertise \
              `writes into caller-provided storage, allocates nothing` — the contract \
              behind the ~20x allocation reduction pinned by `BENCH_allocs.json`. \
              An allocating construct (`Vec::new`, `vec!`, `format!`, `.to_vec()`, \
              `.clone()`, `.collect()`, `.push(..)`, ...) written in a kernel is reported \
              where it is written; a kernel that delegates to an allocating helper is \
              reported at its `fn` line with the witness chain. The sanctioned growth \
              path is exempt: traversal does not descend into `reserve*`/`with_capacity*` \
              helpers, where amortized allocation is the documented design. Traversal \
              follows strong edges only (path calls, bare calls, impl-narrowed \
              `self.m(..)`): weak method fan-out through ubiquitous names like `len` or \
              `iter` would connect every kernel to some legal builder. Suppress on the \
              allocating line for allocations that are provably outside the hot loop.",
    kind: SinkKind::Alloc,
    edges: EdgeSet::Strong,
    in_scope: |n| {
        in_crates(&n.file, FITTING_CRATES)
            && !n.name.starts_with("reserve")
            && !n.name.starts_with("with_capacity")
    },
    owns: is_kernel,
    is_root: is_kernel,
    owner: "zero-allocation kernel",
    advice: "write into caller-provided scratch instead",
    root: "kernel fn",
};

fn is_kernel(n: &FnItem) -> bool {
    n.name.ends_with("_into")
        || n.name.ends_with("_in_place")
        || (n.self_ty == "GrowingCholesky" && !n.name.starts_with("reserve"))
}

impl ReachRule {
    /// The sinks of `node` this rule follows that no suppression covers.
    fn live_sinks<'a>(&self, analysis: &Analysis, node: &'a FnItem) -> Vec<&'a Sink> {
        let Some(model) = analysis.model_for(&node.file) else {
            return Vec::new();
        };
        node.sinks
            .iter()
            .filter(|s| s.kind == self.kind && !model.suppressed(self.id, s.line))
            .collect()
    }
}

impl Rule for ReachRule {
    fn id(&self) -> &'static str {
        self.id
    }

    fn describe(&self) -> &'static str {
        self.describe
    }

    fn explain(&self) -> &'static str {
        self.explain
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        let g = &analysis.graph;
        let allowed: Vec<bool> = g.nodes.iter().map(|n| (self.in_scope)(n)).collect();
        let live: Vec<Vec<&Sink>> = g
            .nodes
            .iter()
            .zip(&allowed)
            .map(|(n, &ok)| {
                if ok {
                    self.live_sinks(analysis, n)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let is_sink: Vec<bool> = live.iter().map(|s| !s.is_empty()).collect();
        let r = to_sinks(g, &is_sink, &allowed, self.edges);
        for (i, n) in g.nodes.iter().enumerate() {
            if (self.owns)(n) {
                let text = analysis.model_for(&n.file).map_or("", |m| &m.source.text);
                for s in &live[i] {
                    out.push(Finding {
                        rule: self.id.to_string(),
                        file: n.file.clone(),
                        line: s.line,
                        col: s.col,
                        message: format!(
                            "{} in {} `{}`; {}",
                            s.what, self.owner, n.qualified, self.advice
                        ),
                        snippet: line_snippet(text, s.line),
                    });
                }
            }
            if !allowed[i] || is_sink[i] || !(self.is_root)(n) {
                continue;
            }
            let witness = r.witness(i);
            let Some(&sink_node) = witness.last() else {
                continue;
            };
            let Some(sink) = live[sink_node].first() else {
                continue;
            };
            let chain: Vec<&str> = witness
                .iter()
                .map(|&k| g.nodes[k].qualified.as_str())
                .collect();
            out.push(Finding {
                rule: self.id.to_string(),
                file: n.file.clone(),
                line: n.line,
                col: 1,
                message: format!(
                    "{} `{}` can reach {} at {}:{} via {}",
                    self.root,
                    n.qualified,
                    sink.what,
                    g.nodes[sink_node].file,
                    sink.line,
                    chain.join(" -> ")
                ),
                snippet: format!("<{} {}>", self.root, n.qualified),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileModel;
    use crate::SourceFile;

    fn graph(src: &str) -> CallGraph {
        let file = SourceFile {
            path: "crates/core/src/a.rs".to_string(),
            text: src.to_string(),
        };
        let mut items = Vec::new();
        FileModel::build(file, &mut items);
        CallGraph::build(items)
    }

    #[test]
    fn witness_is_the_shortest_chain() {
        let g = graph(
            "pub fn entry() { mid(); }\nfn mid() { deep(); }\nfn deep() { bad(); }\nfn bad() {}\n",
        );
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let entry = g.nodes.iter().position(|n| n.name == "entry").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let allowed = vec![true; g.nodes.len()];
        let r = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(r.dist[entry], Some(3));
        let names: Vec<&str> = r
            .witness(entry)
            .into_iter()
            .map(|i| g.nodes[i].name.as_str())
            .collect();
        assert_eq!(names, vec!["entry", "mid", "deep", "bad"]);
    }

    #[test]
    fn disallowed_nodes_block_traversal() {
        let g = graph("pub fn entry() { mid(); }\nfn mid() { bad(); }\nfn bad() {}\n");
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let mid = g.nodes.iter().position(|n| n.name == "mid").unwrap();
        let entry = g.nodes.iter().position(|n| n.name == "entry").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let mut allowed = vec![true; g.nodes.len()];
        allowed[mid] = false;
        let r = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(r.dist[entry], None);
    }

    #[test]
    fn strong_traversal_ignores_plain_method_fanout() {
        // `caller` calls `.step()` on an untyped receiver: the weak
        // fan-out reaches A::step, the strong traversal does not.
        let g = graph(
            "struct A;\nimpl A {\n    fn step(&self) { bad(); }\n}\npub fn caller(x: &A) { x.step(); }\nfn bad() {}\n",
        );
        let bad = g.nodes.iter().position(|n| n.name == "bad").unwrap();
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        let mut is_sink = vec![false; g.nodes.len()];
        is_sink[bad] = true;
        let allowed = vec![true; g.nodes.len()];
        let all = to_sinks(&g, &is_sink, &allowed, EdgeSet::All);
        assert_eq!(all.dist[caller], Some(2));
        let strong = to_sinks(&g, &is_sink, &allowed, EdgeSet::Strong);
        assert_eq!(strong.dist[caller], None);
    }
}
