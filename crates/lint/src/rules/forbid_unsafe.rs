//! `forbid-unsafe-missing`: every library crate's `lib.rs` must carry
//! `#![forbid(unsafe_code)]` so the guarantee cannot be eroded by a
//! module-level `allow`. The one sanctioned exception is `bmf-bench`,
//! whose counting global allocator needs a single `unsafe impl
//! GlobalAlloc` and therefore uses `deny` with a local, documented allow.

use super::{crate_of, Rule};
use crate::findings::Finding;
use crate::Analysis;

/// See the module docs.
pub struct ForbidUnsafeMissing;

/// Crates allowed to weaken `forbid` to `deny` (with local allows).
const ALLOWLIST: &[&str] = &["bench"];

impl Rule for ForbidUnsafeMissing {
    fn id(&self) -> &'static str {
        "forbid-unsafe-missing"
    }

    fn describe(&self) -> &'static str {
        "crate lib.rs lacking #![forbid(unsafe_code)] (bmf-bench allowlisted)"
    }

    fn check(&self, analysis: &Analysis, out: &mut Vec<Finding>) {
        for file in &analysis.files {
            let path = &file.source.path;
            let is_lib_root = path == "src/lib.rs"
                || (path.starts_with("crates/") && path.ends_with("/src/lib.rs"));
            if !is_lib_root
                || crate_of(path).is_some_and(|c| ALLOWLIST.contains(&c))
                || file.inner_attrs.iter().any(|a| a == "forbid(unsafe_code)")
            {
                continue;
            }
            // Anchor the finding on the first code token.
            let (line, col) = file.tok(0).map_or((1, 1), |t| (t.line, t.col));
            out.push(Finding {
                rule: self.id().to_string(),
                file: path.clone(),
                line,
                col,
                message: "library crate root is missing `#![forbid(unsafe_code)]`".to_string(),
                snippet: format!("<crate root {path}>"),
            });
        }
    }
}
