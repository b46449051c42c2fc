//! Open-loop scheduling against a clock.
//!
//! An open-loop client sends each request when it is due, whether or not
//! earlier requests have finished, and every latency is timed from the
//! due time, not from the moment the client got around to sending. A
//! stall therefore also counts against the requests queued behind it,
//! and the client's own lateness is reported separately.

#[cfg(test)]
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Nanosecond time source the open-loop client waits on.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= due_ns` (at once when already past).
    fn wait_until(&self, due_ns: u64);
}

/// Monotonic wall clock: sleeps while the due time is far, then spins
/// for the last stretch so requests leave on time. A sleeping thread can
/// wake a good fraction of a millisecond late on a shared machine, so
/// the spin covers the last [`SPIN_NS`].
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

/// Below twice this distance to the due time the client spins instead
/// of sleeping.
const SPIN_NS: u64 = 1_000_000;

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// The clock's origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The instant `ns` nanoseconds after the origin.
    pub fn instant_at(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns)
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn wait_until(&self, due_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            let left = due_ns - now;
            if left > 2 * SPIN_NS {
                std::thread::sleep(Duration::from_nanos(left - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The sending side of an open-loop run: waits for due times and keeps
/// the generator's lateness (send time minus due time) per request.
#[derive(Debug)]
pub struct OpenLoop<'c, C: Clock> {
    clock: &'c C,
    /// Lateness of every request sent, in nanoseconds.
    pub lateness_ns: Vec<f64>,
}

impl<'c, C: Clock> OpenLoop<'c, C> {
    /// A sender on `clock` for about `expected` requests.
    pub fn new(clock: &'c C, expected: usize) -> Self {
        OpenLoop {
            clock,
            lateness_ns: touched(expected),
        }
    }

    /// Waits until the request due at `due_ns` may be sent and records
    /// how late it leaves. Never sends early.
    pub fn send_at(&mut self, due_ns: u64) -> u64 {
        self.clock.wait_until(due_ns);
        let sent = self.clock.now_ns();
        self.lateness_ns.push(sent.saturating_sub(due_ns) as f64);
        sent
    }

    /// Latency of a request due at `due_ns` that completes now.
    pub fn since_due(&self, due_ns: u64) -> u64 {
        self.clock.now_ns().saturating_sub(due_ns)
    }
}

/// An empty vector whose `n`-element buffer is already written once, so
/// pushing into it during a run neither reallocates nor page-faults.
pub fn touched(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, 0.0);
    v.clear();
    v
}

/// A manually advanced clock for tests of the scheduling arithmetic.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct FakeClock {
    now: Cell<u64>,
}

#[cfg(test)]
impl FakeClock {
    /// Moves time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.set(self.now.get() + ns);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now_ns(&self) -> u64 {
        self.now.get()
    }

    fn wait_until(&self, due_ns: u64) {
        if self.now.get() < due_ns {
            self.now.set(due_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_across_a_stall() {
        // Requests due every 10 ns, each taking 25 ns to serve: the
        // client falls behind, and every queued request is charged the
        // wait from its due time, not just its own 25 ns of service.
        let clock = FakeClock::default();
        let mut sender = OpenLoop::new(&clock, 4);
        let mut latencies = Vec::new();
        for due in [0, 10, 20, 100] {
            sender.send_at(due);
            clock.advance(25);
            latencies.push(sender.since_due(due));
        }
        assert_eq!(latencies, vec![25, 40, 55, 25]);
        assert_eq!(sender.lateness_ns, vec![0.0, 15.0, 30.0, 0.0]);
    }

    #[test]
    fn requests_never_leave_early() {
        let clock = FakeClock::default();
        let mut sender = OpenLoop::new(&clock, 4);
        assert_eq!(sender.send_at(500), 500);
        assert_eq!(clock.now_ns(), 500);
    }

    #[test]
    fn wall_clock_waits_until_due() {
        let clock = WallClock::start();
        let due = clock.now_ns() + 1_000_000;
        clock.wait_until(due);
        assert!(clock.now_ns() >= due);
    }
}
