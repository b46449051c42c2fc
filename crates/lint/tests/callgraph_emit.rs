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
