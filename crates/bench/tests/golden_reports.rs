//! Golden tests of the deterministic counter studies: each runs one
//! study at its full configuration and requires its report to equal the
//! committed `BENCH_<name>.json` byte for byte (see `golden::assert_golden`).
//!
//! A report holds only what the code did — counters, byte sizes, seeded
//! draws, the results of checks — never a time, so it is a pure function
//! of the code and any difference means the work changed. CI runs the
//! suite at the default pool and at `BMF_THREADS=1`, so each report is
//! also pinned at both pool sizes. `BENCH_allocs.json` has its own test
//! binary (`allocs_golden.rs`).

mod golden;

use bmf_bench::chaos_study::{run_chaos, ChaosConfig};
use bmf_bench::lint_study::{run_lint_study, LintStudyConfig};
use bmf_bench::persist_study::{run_persist, PersistConfig};
use bmf_bench::sequential_study::{run_sequential_study, SeqStudyConfig};
use bmf_bench::service_load::{run_load, LoadConfig};
use bmf_stat::fnv::{fnv1a, fnv1a_u64};
use golden::assert_golden;

/// FNV-1a of the artifact store the persist study leaves behind: per
/// file, in name order, the name's length and bytes, then the content's.
const PERSIST_STORE_FNV: u64 = 0x1816_2090_af2b_0185;

#[test]
fn service_report_is_golden() {
    let json = run_load(&LoadConfig::full()).expect("service study");
    assert_golden("service", &json);
}

#[test]
fn persist_report_and_store_are_golden() {
    let store = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("persist-store");
    let json = run_persist(&PersistConfig::full(), &store).expect("persist study");
    assert_golden("persist", &json);

    let mut files: Vec<_> = std::fs::read_dir(&store)
        .expect("the study leaves its store")
        .map(|entry| entry.expect("store entry").path())
        .collect();
    files.sort();
    let hash = files.iter().fold(0, |h, path| {
        let name = path.file_name().expect("file name").as_encoded_bytes();
        let bytes = std::fs::read(path).expect("store file");
        let h = fnv1a(fnv1a_u64(h, name.len() as u64), name);
        fnv1a(fnv1a_u64(h, bytes.len() as u64), &bytes)
    });
    assert_eq!(
        hash,
        PERSIST_STORE_FNV,
        "the artifact store in {} changed ({} files): fresh hash {hash:#018x}",
        store.display(),
        files.len(),
    );
}

#[test]
fn sequential_report_is_golden() {
    let json = run_sequential_study(&SeqStudyConfig::full()).expect("sequential study");
    assert_golden("sequential", &json);
}

#[test]
fn chaos_report_is_golden() {
    let json = run_chaos(&ChaosConfig::full()).expect("chaos study");
    assert_golden("chaos", &json);
}

#[test]
fn lint_report_is_golden() {
    let json = run_lint_study(&LintStudyConfig::full()).expect("lint study");
    assert_golden("lint", &json);
}
