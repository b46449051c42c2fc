//! Markdown report rendering and persistence.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A rendered experiment report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Experiment id, e.g. `table1`.
    pub id: String,
    /// Markdown body.
    pub body: String,
}

impl Report {
    /// Creates a report with a standard header.
    pub fn new(id: &str, title: &str) -> Self {
        let mut body = String::new();
        let _ = writeln!(body, "# {id}: {title}\n");
        Report {
            id: id.to_owned(),
            body,
        }
    }

    /// Appends a paragraph.
    pub fn para(&mut self, text: &str) {
        let _ = writeln!(self.body, "{text}\n");
    }

    /// Appends a Markdown table.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        let _ = writeln!(self.body, "| {} |", headers.join(" | "));
        let _ = writeln!(
            self.body,
            "|{}|",
            headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in rows {
            let _ = writeln!(self.body, "| {} |", row.join(" | "));
        }
        let _ = writeln!(self.body);
    }

    /// Appends preformatted text (histograms, structure dumps).
    pub fn pre(&mut self, text: &str) {
        let _ = writeln!(self.body, "```text\n{}\n```\n", text.trim_end());
    }

    /// Prints the report to stdout and writes `reports/<id>.md` under
    /// `root`.
    ///
    /// # Errors
    ///
    /// Returns an IO error when the report directory cannot be created or
    /// written.
    pub fn emit(&self, root: &Path) -> std::io::Result<PathBuf> {
        println!("{}", self.body);
        let dir = root.join("reports");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.md", self.id));
        fs::write(&path, &self.body)?;
        Ok(path)
    }
}

/// Formats a relative error as a percentage with 4 decimals (matching the
/// paper's tables).
pub fn pct(e: f64) -> String {
    format!("{:.4}", e * 100.0)
}

/// Formats seconds with sensible precision: three significant digits
/// below a millisecond, so a time of microseconds does not read `0.0000`.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 || s.is_nan() || s <= 0.0 {
        format!("{s:.4}")
    } else {
        let decimals = (2.0 - s.log10().floor()) as usize;
        format!("{s:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut r = Report::new("t", "title");
        r.table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(r.body.contains("| a | b |"));
        assert!(r.body.contains("|---|---|"));
        assert!(r.body.contains("| 1 | 2 |"));
    }

    #[test]
    fn emit_writes_file() {
        let dir = std::env::temp_dir().join(format!("bmf-report-test-{}", std::process::id()));
        let r = Report::new("x", "y");
        let path = r.emit(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pct_formats_like_paper() {
        assert_eq!(pct(0.027187), "2.7187");
    }

    #[test]
    fn secs_precision_tiers() {
        assert_eq!(secs(140.31), "140");
        assert_eq!(secs(7.42), "7.42");
        assert_eq!(secs(0.0123), "0.0123");
        assert_eq!(secs(0.00123), "0.0012");
        assert_eq!(secs(0.000123), "0.000123");
        assert_eq!(secs(4.2e-5), "0.0000420");
        assert_eq!(secs(9.87e-7), "0.000000987");
        assert_eq!(secs(0.0), "0.0000");
    }
}
