//! Bench: cold-start fitting vs warm-start of 48 models from an artifact
//! store, which it leaves in `persist-store/` next to its report; see
//! `bmf_bench::persist_study`.
//!
//! ```text
//! cargo bench -p bmf-bench --bench persist
//! ```
//!
//! `bmf_bench::study::bench_main` runs it: the report `BENCH_persist.json`
//! goes to stdout and into `$BMF_BENCH_OUT` (the workspace root when
//! unset), byte-identical at any `BMF_THREADS`.

use bmf_bench::persist_study::{run_persist, PersistConfig};
use bmf_bench::study;

fn main() {
    study::bench_main("persist", || {
        run_persist(
            &PersistConfig::full(),
            &study::out_dir().join("persist-store"),
        )
        .map(|out| out.json)
    });
}
