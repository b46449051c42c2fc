//! Bench: cold-start fitting vs warm-start from an artifact store, which
//! it leaves in `persist-store/` next to its report; see
//! `bmf_bench::persist_study`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench persist             # full, 48 models
//! cargo bench -p bmf-bench --bench persist -- --smoke  # CI, 8 models
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_persist.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::persist_study::{run_persist, PersistConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("persist", |smoke| {
        let cfg = if smoke {
            PersistConfig::smoke()
        } else {
            PersistConfig::full()
        };
        run_persist(&cfg, &study::out_dir().join("persist-store")).map(|out| out.json)
    });
}
