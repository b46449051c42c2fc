//! `--emit=callgraph` is part of the determinism contract: both the DOT
//! and the JSON renderings are pinned byte-for-byte on a small fixture,
//! and the full-workspace dumps must be byte-identical across runs.

use bmf_lint::{Analysis, SourceFile};

const SRC: &str = "pub fn fit(xs: &[f64]) -> f64 {\n    helper(xs)\n}\n\nfn helper(xs: &[f64]) -> f64 {\n    xs.len() as f64\n}\n";
const LABEL: &str = "crates/core/src/demo.rs";

fn analyze() -> Analysis {
    Analysis::build(vec![SourceFile {
        path: LABEL.to_string(),
        text: SRC.to_string(),
    }])
}

#[test]
fn dot_matches_pinned_golden() {
    let want = concat!(
        "digraph bmf_callgraph {\n",
        "  \"core::demo::fit\" [file=\"crates/core/src/demo.rs\", line=1, pub=true];\n",
        "  \"core::demo::helper\" [file=\"crates/core/src/demo.rs\", line=5];\n",
        "  \"core::demo::fit\" -> \"core::demo::helper\";\n",
        "}\n",
    );
    assert_eq!(analyze().graph.to_dot(), want);
}

#[test]
fn json_matches_pinned_golden() {
    let want = concat!(
        "{\"version\":1,\"nodes\":[",
        "{\"id\":\"core::demo::fit\",\"file\":\"crates/core/src/demo.rs\",",
        "\"line\":1,\"pub\":true},",
        "{\"id\":\"core::demo::helper\",\"file\":\"crates/core/src/demo.rs\",",
        "\"line\":5,\"pub\":false}",
        "],\"edges\":[",
        "[\"core::demo::fit\",\"core::demo::helper\"]",
        "]}\n",
    );
    assert_eq!(analyze().graph.to_json(), want);
}

/// `impl` in argument or return-type position is a type, not an `impl`
/// block: the methods keep their own type's ids, so `Job::new(..)` and
/// `Self::helper()` resolve.
#[test]
fn impl_in_type_position_keeps_the_real_ids() {
    let src = concat!(
        "pub struct Job;\n\n",
        "impl Job {\n",
        "    pub fn new(label: impl Into<String>) -> Self {\n",
        "        let _ = label.into();\n",
        "        Job\n",
        "    }\n\n",
        "    pub fn ids(&self) -> impl Iterator<Item = u32> {\n",
        "        Self::helper()\n",
        "    }\n\n",
        "    fn helper() -> std::ops::Range<u32> {\n",
        "        0..3\n",
        "    }\n",
        "}\n\n",
        "pub fn make() -> Job {\n",
        "    Job::new(\"x\")\n",
        "}\n",
    );
    let graph = Analysis::build(vec![SourceFile {
        path: "crates/core/src/batch.rs".to_string(),
        text: src.to_string(),
    }])
    .graph;
    let want = concat!(
        "{\"version\":1,\"nodes\":[",
        "{\"id\":\"core::batch::Job::helper\",\"file\":\"crates/core/src/batch.rs\",",
        "\"line\":13,\"pub\":false},",
        "{\"id\":\"core::batch::Job::ids\",\"file\":\"crates/core/src/batch.rs\",",
        "\"line\":9,\"pub\":true},",
        "{\"id\":\"core::batch::Job::new\",\"file\":\"crates/core/src/batch.rs\",",
        "\"line\":4,\"pub\":true},",
        "{\"id\":\"core::batch::make\",\"file\":\"crates/core/src/batch.rs\",",
        "\"line\":18,\"pub\":true}",
        "],\"edges\":[",
        "[\"core::batch::Job::ids\",\"core::batch::Job::helper\"],",
        "[\"core::batch::make\",\"core::batch::Job::new\"]",
        "]}\n",
    );
    assert_eq!(graph.to_json(), want);
}

#[test]
fn workspace_emits_are_byte_stable() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = bmf_lint::analyze_workspace(&root).expect("analyze");
    let b = bmf_lint::analyze_workspace(&root).expect("analyze");
    assert_eq!(a.graph.to_dot(), b.graph.to_dot());
    assert_eq!(a.graph.to_json(), b.graph.to_json());
    assert!(!a.graph.nodes.is_empty());
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    // `bmf-lint --emit=callgraph | head`: the reader goes away long
    // before the multi-hundred-KB dump is written. The binary must end
    // quietly with its own exit code, not panic on the broken pipe.
    use std::process::{Command, Stdio};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut child = Command::new(env!("CARGO_BIN_EXE_bmf-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--emit=callgraph")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bmf-lint");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for bmf-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
