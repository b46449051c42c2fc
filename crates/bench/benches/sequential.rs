//! Bench: the streaming posterior engine's per-sample streamed ≡ batch
//! bitwise oracle and interleaved arrival replay; see
//! `bmf_bench::sequential_study`. With `--features bench` the `--smoke`
//! run also asserts the steady-state zero-allocation budget.
//!
//! ```text
//! cargo bench -p bmf-bench --bench sequential             # full, k=128
//! cargo bench -p bmf-bench --bench sequential -- --smoke  # CI, k=32
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_sequential.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::sequential_study::{run_sequential_study, SeqStudyConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("sequential", |smoke| {
        let cfg = if smoke {
            SeqStudyConfig::smoke()
        } else {
            SeqStudyConfig::full()
        };
        run_sequential_study(&cfg).map(|out| out.json)
    });
}
