//! Pins `scripts/bench_trend.sh` to the report writer: a baseline
//! written by `bmf_bench::study::ReportWriter` passes the gate against
//! an identical copy, and each regression the gate exists to catch
//! fails it with exit status 1, naming what it caught.

use std::path::PathBuf;

use bmf_bench::study::ReportWriter;

/// A report with a scenario, a metric section, an array section and,
/// unless `dropped`, a top-level scalar.
fn report(seed: u64, p99_ns: u64, recovered: u64, dropped: bool) -> String {
    let mut w = ReportWriter::default();
    w.section("scenario", |s| {
        s.field("seed", seed).field("jobs", 4u64);
    });
    w.section("latency", |s| {
        s.field("p50_ns", 500u64).field("p99_ns", p99_ns);
    });
    w.rows("sweep", [recovered, 8], |row, recovered| {
        row.field("trials", 8u64).field("recovered", recovered);
    });
    if !dropped {
        w.scalar("bitwise_checks", 128u64);
    }
    w.finish().expect("valid report")
}

/// Runs the gate on `fresh` against the baseline report; returns its
/// exit code and stderr.
fn gate(case: &str, fresh: &str) -> (Option<i32>, String) {
    let dir = std::env::temp_dir().join(format!("bmf-trend-gate-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (fresh_path, baseline_path) = (dir.join("fresh.json"), dir.join("baseline.json"));
    std::fs::write(&baseline_path, report(7, 1_000, 8, false)).expect("write baseline");
    std::fs::write(&fresh_path, fresh).expect("write fresh report");
    let script = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/bench_trend.sh");
    let out = std::process::Command::new("bash")
        .arg(script)
        .arg(&fresh_path)
        .arg(&baseline_path)
        .output()
        .expect("run bench_trend.sh");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn identical_copy_passes() {
    let (code, stderr) = gate("same", &report(7, 1_000, 8, false));
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn each_regression_fails_naming_what_it_caught() {
    let cases = [
        // A lower-is-better key raised 30%.
        ("latency", report(7, 1_300, 8, false), "latency.p99_ns"),
        // An array row's success count halved.
        ("row", report(7, 1_000, 4, false), "sweep[0].recovered"),
        (
            "scenario",
            report(8, 1_000, 8, false),
            "refusing to compare",
        ),
        ("dropped", report(7, 1_000, 8, true), "bitwise_checks"),
    ];
    for (case, fresh, needle) in cases {
        let (code, stderr) = gate(case, &fresh);
        assert_eq!(code, Some(1), "{case} must fail the gate: {stderr}");
        assert!(
            stderr.contains(needle),
            "{case}: expected `{needle}` in: {stderr}"
        );
    }
}
