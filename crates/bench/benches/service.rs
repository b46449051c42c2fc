//! Bench: the fitting service under a deterministic open-loop load of
//! one million mixed fit/predict/evict requests; see
//! `bmf_bench::service_load`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench service
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_service.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::service_load::{run_load, LoadConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("service", || {
        run_load(&LoadConfig::full()).map(|out| out.json)
    });
}
