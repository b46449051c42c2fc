//! Order statistics for latency samples.
//!
//! A tail is reported at the highest percentile of [`TAIL_LADDER`] that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail is never
//! a single unlucky sample. The ladder stops at p99: on a small shared
//! machine a deeper percentile moves with whatever else the host runs,
//! and the benchmark's metrics must repeat across runs.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Median and tail of one latency class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail was taken at (`NaN` when there is no tail).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes samples (sorts them in place).
    pub fn of(values: &mut [f64]) -> Self {
        values.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(values.len()).unwrap_or(f64::NAN);
        Summary {
            n: values.len(),
            p50: percentile(values, 50.0),
            tail_p,
            tail: if tail_p.is_nan() {
                f64::NAN
            } else {
                percentile(values, tail_p)
            },
        }
    }
}

/// Chunks a run's samples are split into for [`chunked_tail`].
pub const TAIL_CHUNKS: usize = 5;

/// The median, over [`TAIL_CHUNKS`] consecutive equal-count chunks of
/// samples in arrival order, of each chunk's tail (by the ladder rule
/// applied to the chunk). One stall of the host then moves one chunk's
/// tail, not the reported one. Returns the value and the percentile.
pub fn chunked_tail(in_order: &[f64]) -> (f64, f64) {
    let size = in_order.len().div_ceil(TAIL_CHUNKS).max(1);
    let mut tails = Vec::new();
    let mut p = f64::NAN;
    for chunk in in_order.chunks(size) {
        let s = Summary::of(&mut chunk.to_vec());
        if !s.tail.is_nan() {
            p = if p.is_nan() {
                s.tail_p
            } else {
                p.min(s.tail_p)
            };
            tails.push(s.tail);
        }
    }
    (median(&tails), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_tail_ignores_one_bad_chunk() {
        // Five chunks of 1000; one has a stall that lifts its whole tail.
        let mut v: Vec<f64> = Vec::new();
        for c in 0..5 {
            for i in 0..1000 {
                let stall = if c == 2 && i >= 900 { 1e6 } else { 0.0 };
                v.push(f64::from(i) + stall);
            }
        }
        assert_eq!(chunked_tail(&v), (989.0, 99.0));
        assert_eq!(Summary::of(&mut v.clone()).tail, 1e6 + 949.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: p99 is rank 990, only nine beyond -> p90.
        assert_eq!(tail_percentile(999), Some(90.0));
        // 100 samples: p90 is rank 90, ten beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        // 20 samples: the median (rank 10) has ten beyond; 19 do not.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // The ladder is capped at p99 however many samples there are.
        assert_eq!(tail_percentile(10_000_000), Some(99.0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(v.len(), 99.0), 10);
        let mut shuffled: Vec<f64> = v.iter().rev().copied().collect();
        let s = Summary::of(&mut shuffled);
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (1000, 500.0, 99.0, 990.0));
        assert!(Summary::of(&mut []).p50.is_nan());
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
