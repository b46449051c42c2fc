//! What one run reports, and the result line the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Requests of one class: sent, succeeded and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCount {
    /// Requests sent.
    pub sent: u64,
    /// Requests that completed as expected.
    pub ok: u64,
    /// Requests that failed, were shed or expired.
    pub failed: u64,
    /// Requests that completed within the class's latency limit.
    pub within_limit: u64,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; any entry withholds every number.
    pub failures: Vec<String>,
    /// Per-class request accounting, by class name.
    pub classes: Vec<(&'static str, ClassCount)>,
    /// The end-to-end metrics of `BENCHMARK.json`, in its order.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end figures printed beside the contract
    /// metrics (for example the fit tail on `serve_mix`).
    pub detail: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Canonical configuration text; its hash keys comparisons.
    pub config: String,
    /// Hash of every input byte the seed generated.
    pub inputs_hash: String,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.end_to_end.push(metric(name, unit, value));
    }

    /// Adds a workload-specific figure.
    pub fn detail(&mut self, name: &str, unit: &'static str, value: f64) {
        self.detail.push(metric(name, unit, value));
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Requests attempted across every class.
    pub fn attempted(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.sent).sum()
    }

    /// Requests failed across every class.
    pub fn failed(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.failed).sum()
    }

    /// Share of attempted requests that met their class's limit.
    pub fn slo_ratio(&self) -> f64 {
        let within: u64 = self.classes.iter().map(|(_, c)| c.within_limit).sum();
        within as f64 / self.attempted().max(1) as f64
    }
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// JSON string literal (the names and units used here need no escapes
/// beyond quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// JSON object of metrics: `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; an unavailable figure is null.
        let value = if m.value.is_finite() {
            m.value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    out.push('}');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(if correct { metrics } else { &[] })
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_withholds_numbers_on_failure() {
        let m = [metric("setup_s", "s", 0.5)];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(false, 3, 1, &m).ends_with("\"metrics\": {}}"));
    }
}
