//! Bench: chaos soak — fault-injected warm starts, overload shedding,
//! and crash-point recovery; see `bmf_bench::chaos_study`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench chaos
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_chaos.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::chaos_study::{run_chaos, ChaosConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("chaos", || {
        run_chaos(&ChaosConfig::full()).map(|out| out.json)
    });
}
