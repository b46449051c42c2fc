//! Findings: what a rule reports.

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that produced this finding (e.g. `panic-reachability`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The trimmed source line the finding sits on.
    pub snippet: String,
}

impl Finding {
    /// The sort key used everywhere findings are ordered, so every
    /// reporter agrees on one deterministic order.
    pub fn sort_key(&self) -> (String, u32, u32, String) {
        (self.file.clone(), self.line, self.col, self.rule.clone())
    }
}

/// Extracts the trimmed text of 1-based `line` from `src`.
pub fn line_snippet(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}
