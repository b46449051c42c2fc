//! Minimal in-tree property-test harness.
//!
//! Replaces the external `proptest` dependency for the hermetic,
//! zero-dependency build. Properties are closures over the workspace
//! [`Rng`]: the harness runs `cases` independent cases, each seeded with
//! `derive_seed(master, case)`, and on failure reports the exact case seed
//! so the single failing input can be replayed.
//!
//! There is no shrinking; instead every case is cheap to reproduce:
//!
//! * `BMF_PROP_SEED=<u64>` changes the master seed for a whole run
//!   (useful for widening coverage in CI),
//! * `BMF_PROP_CASE_SEED=<u64>` replays exactly one case — the value the
//!   failure message prints.
//!
//! # Example
//!
//! ```
//! use bmf_stat::prop;
//!
//! prop::check("abs is idempotent", 32, |rng| {
//!     let x = rng.gen_range(-10.0..10.0);
//!     assert_eq!(x.abs(), x.abs().abs());
//! });
//! ```

use crate::rng::{derive_seed, seeded, Rng};

/// Default number of cases when a test has no special cost constraints.
pub const DEFAULT_CASES: u64 = 64;

/// Master seed used when `BMF_PROP_SEED` is not set. Arbitrary constant;
/// fixed so default runs are bit-reproducible.
const DEFAULT_MASTER_SEED: u64 = 0xB14F_5EED_0000_0001;

/// Runs `cases` seeded cases of the property `prop`.
///
/// Each case receives a fresh [`Rng`] seeded from
/// `derive_seed(master, case_index)`. The property signals failure by
/// panicking (plain `assert!` family); the harness reports the case index
/// and seed, then re-raises the panic so the test fails normally.
///
/// A property may `return` early to skip a case it cannot use (the
/// equivalent of `prop_assume!`); prefer generators that rarely need this.
pub fn check<F>(name: &str, cases: u64, mut prop: F)
where
    F: FnMut(&mut Rng),
{
    if let Some(case_seed) = env_u64("BMF_PROP_CASE_SEED") {
        eprintln!("[bmf-prop] `{name}`: replaying single case seed {case_seed:#018x}");
        prop(&mut seeded(case_seed));
        return;
    }
    let master = env_u64("BMF_PROP_SEED").unwrap_or(DEFAULT_MASTER_SEED);
    for case in 0..cases {
        let case_seed = derive_seed(master, case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prop(&mut seeded(case_seed));
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "[bmf-prop] property `{name}` failed on case {case}/{cases} \
                 (master seed {master:#018x}); reproduce this case with \
                 BMF_PROP_CASE_SEED={case_seed}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Uniform `Vec<f64>` generator, the workhorse of the linalg and solver
/// property tests.
pub fn vec_in(rng: &mut Rng, lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Reads an environment variable as `u64`, accepting decimal or `0x` hex.
fn env_u64(key: &str) -> Option<u64> {
    let raw = std::env::var(key).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        // bmf-lint: allow(panic-reachability) -- the property harness aborts on a malformed env override by design
        Err(_) => panic!("{key} must be a u64 (decimal or 0x-hex), got `{raw}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u64;
        check("counter", 17, |_rng| {
            count += 1;
        });
        assert_eq!(count, 17);
    }

    #[test]
    fn cases_see_distinct_seeds() {
        let mut firsts = Vec::new();
        check("distinct draws", 8, |rng| {
            firsts.push(rng.next_u64());
        });
        let unique: std::collections::HashSet<_> = firsts.iter().collect();
        assert_eq!(unique.len(), firsts.len());
    }

    #[test]
    fn failing_property_propagates_panic() {
        let result = std::panic::catch_unwind(|| {
            check("always fails", 4, |_rng| {
                panic!("intentional");
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = Vec::new();
        check("run a", 5, |rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        check("run b", 5, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn vec_in_respects_bounds() {
        let mut rng = seeded(1);
        let v = vec_in(&mut rng, -2.0, 3.0, 100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| (-2.0..3.0).contains(&x)));
    }
}
