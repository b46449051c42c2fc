//! Bench: the streaming posterior engine's per-sample streamed ≡ batch
//! bitwise oracle (k = 128) and interleaved arrival replay; see
//! `bmf_bench::sequential_study`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench sequential
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_sequential.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::sequential_study::{run_sequential_study, SeqStudyConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("sequential", || {
        run_sequential_study(&SeqStudyConfig::full()).map(|out| out.json)
    });
}
