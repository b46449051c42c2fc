//! Golden test of `BENCH_allocs.json`: heap allocations and peak bytes
//! per fit, counted by the counting allocator (`bmf_bench::alloc`), must
//! equal the committed report byte for byte (see `golden::assert_golden`).
//!
//! This binary installs the counter as its global allocator; with the
//! `bench` feature the library already does. The test must stay the only
//! one in the binary: `alloc::measure` counts the allocations of every
//! thread, so a test running alongside would be counted too.

mod golden;

use bmf_bench::alloc;
use bmf_bench::allocs_study::allocation_study;
use bmf_bench::scale::Scale;

#[cfg(not(feature = "bench"))]
#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// The seed `repro` runs with when given none.
const REPRO_SEED: u64 = 20130602;

#[test]
fn allocs_report_is_golden() {
    assert!(
        alloc::counting_enabled(),
        "the counting allocator is not installed"
    );
    let out = allocation_study(Scale::Default, REPRO_SEED).expect("allocation study");
    golden::assert_golden("allocs", &out.json);
}
