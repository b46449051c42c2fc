//! Reporters: human-readable text and machine-readable JSON.
//!
//! Both renderings are byte-deterministic for a given workspace state:
//! findings are pre-sorted by `(file, line, col, rule)`, and the JSON
//! writer emits keys in a fixed order with no floating-point values. CI
//! diffs the JSON bytes across runs, so determinism here is itself under
//! test.

use crate::findings::Finding;

/// Renders the human report: one `file:line:col: [rule] message` block per
/// finding and a one-line summary.
pub fn human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}:{}: [{}] {}\n",
            f.file, f.line, f.col, f.rule, f.message
        ));
        if !f.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", f.snippet));
        }
    }
    out.push_str(&format!("bmf-lint: {} finding(s)\n", findings.len()));
    out
}

/// Renders the JSON report. Schema:
///
/// ```json
/// {"version":2,
///  "findings":[{"rule":..,"file":..,"line":..,"col":..,"message":..,
///               "snippet":..}]}
/// ```
pub fn json(findings: &[Finding]) -> String {
    let rendered: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"rule\":{},\"file\":{},\"line\":{},\"col\":{},\"message\":{},\
                 \"snippet\":{}}}",
                escape_str(&f.rule),
                escape_str(&f.file),
                f.line,
                f.col,
                escape_str(&f.message),
                escape_str(&f.snippet)
            )
        })
        .collect();
    format!("{{\"version\":2,\"findings\":[{}]}}\n", rendered.join(","))
}

/// Minimal JSON string escaping (quotes, backslash, control characters),
/// shared with the call-graph dump.
pub(crate) fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_is_stable() {
        let f = Finding {
            rule: "no-float-eq".to_string(),
            file: "crates/core/src/x.rs".to_string(),
            line: 3,
            col: 8,
            message: "quote \" and backslash \\".to_string(),
            snippet: "if x == 0.0 {\t}".to_string(),
        };
        let findings = [f];
        let a = json(&findings);
        let b = json(&findings);
        assert_eq!(a, b);
        assert!(a.contains("\\\""));
        assert!(a.contains("\\\\"));
        assert!(a.contains("\\t"));
        assert!(a.ends_with("]}\n"));
    }

    #[test]
    fn human_summarizes_counts() {
        assert_eq!(human(&[]), "bmf-lint: 0 finding(s)\n");
    }
}
