//! Bench: the flow-aware analyzer over this workspace, reported as
//! deterministic counters; see `bmf_bench::lint_study`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench lint
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_lint.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::lint_study::{run_lint_study, LintStudyConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("lint", || {
        run_lint_study(&LintStudyConfig::full()).map(|out| out.json)
    });
}
