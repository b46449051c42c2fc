//! Self-application gate: linting the committed workspace must produce
//! zero findings. This is the same check CI runs via the binary; having
//! it in `cargo test` means a plain test run catches a violation before
//! the hermeticity script does.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = bmf_lint::lint_workspace(&root).expect("lint workspace");
    assert!(
        findings.is_empty(),
        "lint findings — fix them or justify each with an inline \
         `// bmf-lint: allow(<rule>) -- <reason>`:\n{findings:#?}"
    );
}
