//! One report layout for the deterministic counter studies.
//!
//! The service, persist, sequential, chaos, lint and allocation studies
//! all render their reports with [`ReportWriter`]: top-level scalars,
//! one-line sections and arrays of one-line rows, so a report's diff
//! shows each changed counter on its own line. It refuses NaN, ±inf and
//! keys outside `[A-Za-z0-9_]`, which keeps the file valid JSON without
//! escaping.
//!
//! Reports hold only what the code did — counters, byte sizes, seeded
//! draws and the results of checks — never a time, measured or modeled:
//! every number is a function of the study's configuration, so a report
//! is byte-identical across machines, runs and `BMF_THREADS` settings.
//! Wall-clock numbers live in wallbench (`wallbench/`). Each committed
//! `BENCH_<name>.json` is the golden file of one test in
//! `crates/bench/tests/`, which runs the study at its full configuration
//! and requires the fresh report to equal the committed one byte for
//! byte.

use std::fmt::{Display, Write as _};

use bmf_core::BmfError;

/// Writes a report in the flat layout, one entry at a time in output
/// order. Values are written with `Display` and must read as a finite
/// number or a boolean; the first refused key or value is returned by
/// [`ReportWriter::finish`].
#[derive(Debug, Default)]
pub struct ReportWriter {
    out: String,
    entries: usize,
    error: Option<String>,
}

/// The fields of one section or row, filled by [`Fields::field`].
#[derive(Debug)]
pub struct Fields<'a> {
    writer: &'a mut ReportWriter,
    section: &'a str,
    count: usize,
}

impl ReportWriter {
    /// A top-level `"key": value` line.
    pub fn scalar(&mut self, key: &str, value: impl Display) {
        self.open(key);
        self.value(key, value);
    }

    /// A one-line `"key": { "k": v, ... }` section, filled by `fill`.
    pub fn section(&mut self, key: &str, fill: impl FnOnce(&mut Fields<'_>)) {
        self.open(key);
        self.object(key, fill);
    }

    /// An array with one one-line row per item, each filled by `fill`.
    pub fn rows<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Fields<'_>, T),
    ) {
        self.open(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            self.out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            self.object(key, |row| fill(row, item));
        }
        self.out.push_str("\n  ]");
    }

    /// The finished report.
    ///
    /// # Errors
    ///
    /// [`BmfError::Config`] naming the first key outside `[A-Za-z0-9_]`
    /// or the first value that is not a finite number or a boolean.
    pub fn finish(mut self) -> Result<String, BmfError> {
        if let Some(detail) = self.error {
            return Err(BmfError::Config {
                parameter: "report",
                detail,
            });
        }
        self.out.push_str("\n}\n");
        Ok(self.out)
    }

    fn open(&mut self, key: &str) {
        self.out
            .push_str(if self.entries == 0 { "{\n  " } else { ",\n  " });
        self.entries += 1;
        self.key(key);
    }

    fn object(&mut self, section: &str, fill: impl FnOnce(&mut Fields<'_>)) {
        self.out.push_str("{ ");
        fill(&mut Fields {
            writer: self,
            section,
            count: 0,
        });
        self.out.push_str(" }");
    }

    fn key(&mut self, key: &str) {
        if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            self.refuse(format!(
                "key `{key}` has a character outside [A-Za-z0-9_] (or none)"
            ));
        }
        let _ = write!(self.out, "\"{key}\": ");
    }

    fn value(&mut self, key: &str, value: impl Display) {
        let text = value.to_string();
        if !matches!(text.as_str(), "true" | "false") && !text.parse().is_ok_and(f64::is_finite) {
            self.refuse(format!(
                "`{key}` is {text}, not a finite number or a boolean"
            ));
        }
        self.out.push_str(&text);
    }

    fn refuse(&mut self, detail: String) {
        self.error.get_or_insert(detail);
    }
}

impl Fields<'_> {
    /// Appends `"key": value` to the section or row.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        if self.count > 0 {
            self.writer.out.push_str(", ");
        }
        self.count += 1;
        self.writer.key(key);
        let path = format!("{}.{key}", self.section);
        self.writer.value(&path, value);
        self
    }
}

/// Values of the linear model `truth[0] + Σᵢ xᵢ·truth[i+1]` at each
/// point, the synthetic ground truth the studies fit.
pub(crate) fn linear_values(truth: &[f64], points: &[Vec<f64>]) -> Vec<f64> {
    let (intercept, slopes) = truth.split_first().expect("truth has an intercept");
    points
        .iter()
        .map(|p| intercept + p.iter().zip(slopes).map(|(x, t)| x * t).sum::<f64>())
        .collect()
}

/// Fails a study run whose headline check does not hold, so a bad run
/// fails instead of rendering a report.
///
/// # Errors
///
/// [`BmfError::Config`] naming the study and the check when `ok` is
/// false.
pub(crate) fn ensure(study: &'static str, ok: bool, check: &str) -> Result<(), BmfError> {
    if ok {
        return Ok(());
    }
    Err(BmfError::Config {
        parameter: study,
        detail: format!("headline check `{check}` failed"),
    })
}

/// Asserts that every whitespace-separated key is present, quoted, in a
/// report.
#[cfg(test)]
pub(crate) fn assert_has_keys(json: &str, keys: &str) {
    for key in keys.split_whitespace() {
        assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
    }
}

/// The unsigned counter `"key": n` that appears exactly once in
/// `report`, a whole report or one of its lines; the study tests read a
/// run's counts back out of its report with it.
#[cfg(test)]
pub(crate) fn counter(report: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\": ");
    let values: Vec<u64> = report
        .match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &report[at + pattern.len()..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits]
                .parse()
                .unwrap_or_else(|_| panic!("`{key}` is not a counter in {report}"))
        })
        .collect();
    match values[..] {
        [value] => value,
        _ => panic!("`{key}` appears {} times in {report}", values.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_flat_layout() {
        let mut w = ReportWriter::default();
        w.scalar("enabled", true);
        w.section("scenario", |s| {
            s.field("jobs", 3u64).field("seed", 7usize);
        });
        w.rows("sweep", [0u32, 20], |row, level| {
            row.field("level", level);
        });
        w.scalar("rate", 0.5);
        assert_eq!(
            w.finish().expect("valid report"),
            "{\n  \"enabled\": true,\n  \"scenario\": { \"jobs\": 3, \"seed\": 7 },\n  \
             \"sweep\": [\n    { \"level\": 0 },\n    { \"level\": 20 }\n  ],\n  \
             \"rate\": 0.5\n}\n"
        );
    }

    #[test]
    fn refuses_what_the_gate_cannot_read() {
        let refused = |key: &str, value: f64| {
            let mut w = ReportWriter::default();
            w.rows("rows", [value], |row, v| {
                row.field(key, v);
            });
            let err = w.finish().expect_err("must be refused").to_string();
            let mut w = ReportWriter::default();
            w.scalar(key, value);
            assert!(
                w.finish().is_err(),
                "top-level `{key}`: {value} must be refused"
            );
            err
        };
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = refused("ratio", v);
            assert!(err.contains("rows.ratio"), "{err}");
        }
        for key in ["panic-reachability", "a.b", "", "p99 ns", "x\"y"] {
            let err = refused(key, 1.0);
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
    }
}
