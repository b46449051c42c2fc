//! The one wall-clock sampler in this crate: the median of five timed
//! runs, behind every timed cell of `repro`'s cost experiments — the
//! §IV-C solver gap (`repro solver`), Figs. 5 and 8, the fitting cost of
//! Tables IV and VI, and the batch study.

use std::time::Instant;

use bmf_core::Result;
use bmf_stat::summary::quantile;

/// Timed calls per measurement.
const RUNS: usize = 5;

/// Calls `f` five times, timing each call, and returns the last call's
/// result with the median of the five wall times, in seconds.
///
/// There is no warm-up: the median already drops a cold first run.
///
/// # Errors
///
/// The first error `f` returns, at once.
pub(crate) fn median_secs<T>(f: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let start = Instant::now();
    median_secs_on(|| start.elapsed().as_secs_f64(), f)
}

/// [`median_secs`] on the clock `now`, in seconds.
fn median_secs_on<T>(
    mut now: impl FnMut() -> f64,
    mut f: impl FnMut() -> Result<T>,
) -> Result<(T, f64)> {
    let mut secs = Vec::with_capacity(RUNS);
    loop {
        let t0 = now();
        let out = f()?;
        secs.push(now() - t0);
        if secs.len() == RUNS {
            return Ok((out, quantile(&secs, 0.5)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_core::BmfError;

    #[test]
    fn a_succeeding_closure_runs_five_times_and_returns_its_last_value() {
        let mut calls = 0;
        let (last, _) = median_secs(|| {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!(calls, RUNS);
        assert_eq!(last, RUNS);
    }

    #[test]
    fn the_first_error_returns_at_once() {
        let call_2 = || BmfError::Config {
            parameter: "call",
            detail: "2".into(),
        };
        let mut calls = 0;
        let err = median_secs(|| {
            calls += 1;
            if calls == 2 {
                return Err(call_2());
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(calls, 2);
        assert_eq!(err, call_2());
    }

    #[test]
    fn reports_the_median_of_the_five_samples() {
        // Each call advances the fake clock by the next duration; a read
        // outside a call sees no time pass.
        let durations = [3.0, 1.0, 5.0, 2.0, 4.0];
        let (mut clock, mut reads) = (0.0, 0);
        let now = || {
            if reads % 2 == 1 {
                clock += durations[reads / 2];
            }
            reads += 1;
            clock
        };
        let ((), median) = median_secs_on(now, || Ok(())).unwrap();
        assert_eq!(median, quantile(&durations, 0.5));
        assert_eq!(median, 3.0);
    }
}
