//! Counting global allocator for allocation-budget benchmarking.
//!
//! The fitting stack's performance story (DESIGN.md §9) depends on *not*
//! allocating in the cross-validation inner loops. This module makes that
//! claim measurable: with the `bench` cargo feature enabled, every binary
//! in this crate runs under a [`CountingAllocator`] that wraps the system
//! allocator and tracks allocation count, live bytes, and peak bytes with
//! relaxed atomics (~2 ns overhead per event — negligible next to an
//! actual heap allocation).
//!
//! Without the feature the counters stay at zero unless a binary installs
//! [`CountingAllocator`] itself, as the allocs golden test
//! (`tests/allocs_golden.rs`) does; [`counting_enabled`] tells the two
//! apart at run time, so `repro allocs` runs in every build and flags a
//! report of zeros:
//!
//! ```text
//! cargo run -p bmf-bench --features bench --bin repro -- allocs
//! ```
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation totals at a point in time, or the delta over a
/// [`measure`] region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocation events (`alloc` + growing `realloc`).
    pub count: u64,
    /// Net live bytes (allocated − freed).
    pub bytes: u64,
    /// Peak live bytes. In a [`measure`] delta this is the high-water
    /// mark *above* the bytes live when the region started.
    pub peak_bytes: u64,
}

/// Whether the counting allocator is this binary's global allocator,
/// by the `bench` feature or by the binary's own `#[global_allocator]`:
/// one probe allocation, which only the installed counter counts.
pub fn counting_enabled() -> bool {
    let before = COUNT.load(Ordering::Relaxed);
    drop(std::hint::black_box(Box::new(0u8)));
    COUNT.load(Ordering::Relaxed) != before
}

static COUNT: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` wrapper over [`std::alloc::System`] that counts
/// events and tracks live/peak bytes.
pub struct CountingAllocator;

#[cfg(feature = "bench")]
mod install {
    /// With the `bench` feature, every binary in this crate allocates
    /// through the counter.
    #[global_allocator]
    static GLOBAL: super::CountingAllocator = super::CountingAllocator;
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping uses only atomics.
unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = std::alloc::System.alloc(layout);
        if !p.is_null() {
            record(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = std::alloc::System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            CURRENT.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            record(new_size as u64);
        }
        p
    }
}

fn record(size: u64) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// A snapshot of the global counters (zeros when counting is disabled).
pub fn stats() -> AllocStats {
    AllocStats {
        count: COUNT.load(Ordering::Relaxed),
        bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Runs `f` and returns its result plus the allocation delta of the
/// region: events counted, net bytes, and peak bytes above the level
/// live at entry.
///
/// Peak tracking is reset at entry, so concurrent allocations from other
/// threads during the region are attributed to it; measure on a quiet
/// process (the allocation study is single-threaded at its measurement
/// points, and its golden test is the only test in its binary).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    let count0 = COUNT.load(Ordering::Relaxed);
    let live0 = CURRENT.load(Ordering::Relaxed);
    PEAK.store(live0, Ordering::Relaxed);
    let out = f();
    let after = stats();
    (
        out,
        AllocStats {
            count: after.count - count0,
            bytes: after.bytes.saturating_sub(live0),
            peak_bytes: after.peak_bytes.saturating_sub(live0),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_a_vec_when_enabled() {
        let (v, delta) = measure(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        if counting_enabled() {
            assert!(delta.count >= 1, "vec allocation not counted");
            assert!(delta.peak_bytes >= 4096);
        } else {
            assert_eq!(delta.count, 0);
        }
    }

    #[test]
    fn stats_is_monotone_in_count() {
        let a = stats();
        let _keep: Vec<u8> = Vec::with_capacity(128);
        let b = stats();
        assert!(b.count >= a.count);
    }
}
