//! Deterministic retry with exponential backoff and seeded jitter.
//!
//! Production storage fails *transiently*: a loaded disk times out, a
//! network filesystem drops a request, an injected chaos fault fires.
//! The right client response is retry-with-backoff — but a naive
//! implementation reads the wall clock or a global RNG for its jitter,
//! and every byte-reproducibility contract in this workspace dies with
//! it. This module keeps the schedule *pure*: delays are a function of
//! `(seed, attempt)` only, drawn from the in-tree
//! [`rng`](crate::rng) stream, so a retried chaos run produces the same
//! schedule, the same counters, and the same report bytes every time.
//!
//! Delays are *virtual* nanoseconds. Nothing here sleeps; callers charge
//! the returned delay to their own accounting (the chaos study sums it
//! per fault level), which keeps retry storms visible without making
//! benchmarks wall-clock dependent.
//!
//! ```
//! use bmf_stat::backoff::Backoff;
//!
//! let mut schedule = Backoff::new(42);
//! let first = schedule.next_delay_ns().unwrap();
//! // Same seed, same schedule: retries are reproducible.
//! let mut again = Backoff::new(42);
//! assert_eq!(again.next_delay_ns(), Some(first));
//! ```

use crate::rng::{seeded, Rng};

/// Retries allowed after the first attempt.
pub const MAX_RETRIES: u32 = 6;

/// Delay before the first retry, in virtual nanoseconds. It doubles on
/// every retry, so the sixth waits 3.2 ms before jitter.
pub const BASE_DELAY_NS: u64 = 100_000;

/// Jitter magnitude in permille of the delay: each delay is stretched by
/// up to +25 %, which decorrelates concurrent retriers.
pub const JITTER_PERMILLE: u64 = 250;

/// One operation's live retry schedule:
/// `delay = BASE_DELAY_NS · 2^attempt · (1 + jitter)` with
/// `jitter ∈ [0, JITTER_PERMILLE/1000)` drawn from the schedule's own RNG
/// stream, for at most [`MAX_RETRIES`] retries.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: Rng,
    attempt: u32,
}

impl Backoff {
    /// Starts a fresh deterministic schedule for one retried operation.
    /// Same seed, same delays — callers derive per-operation seeds with
    /// [`derive_seed`](crate::rng::derive_seed) so concurrent retriers
    /// stay decorrelated.
    pub fn new(seed: u64) -> Self {
        Backoff {
            rng: seeded(seed),
            attempt: 0,
        }
    }

    /// The delay to wait (in virtual nanoseconds) before the next retry,
    /// or `None` when the retry budget is exhausted and the operation's
    /// last error should be surfaced to the caller.
    pub fn next_delay_ns(&mut self) -> Option<u64> {
        if self.attempt >= MAX_RETRIES {
            return None;
        }
        let doubled = BASE_DELAY_NS << self.attempt;
        // Uniform jitter in [0, JITTER_PERMILLE/1000) of the delay, in
        // integer arithmetic off one RNG draw so the stream advances
        // exactly once per retry.
        let jitter = self.rng.next_u64() % (doubled / 1000 * JITTER_PERMILLE);
        self.attempt += 1;
        Some(doubled + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let mut a = Backoff::new(7);
        let mut b = Backoff::new(7);
        let mut c = Backoff::new(8);
        let da: Vec<_> = std::iter::from_fn(|| a.next_delay_ns()).collect();
        let db: Vec<_> = std::iter::from_fn(|| b.next_delay_ns()).collect();
        let dc: Vec<_> = std::iter::from_fn(|| c.next_delay_ns()).collect();
        assert_eq!(da, db);
        assert_ne!(da, dc);
        assert_eq!(da.len(), MAX_RETRIES as usize);
    }

    #[test]
    fn jitter_stays_within_its_permille_band() {
        for seed in 0..200 {
            let mut s = Backoff::new(seed);
            for attempt in 0..MAX_RETRIES {
                let d = s.next_delay_ns().expect("within budget");
                let doubled = BASE_DELAY_NS << attempt;
                let band = doubled..doubled + doubled / 1000 * JITTER_PERMILLE;
                assert!(band.contains(&d), "delay {d} out of {band:?}");
            }
        }
    }
}
