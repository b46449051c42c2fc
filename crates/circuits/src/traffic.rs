//! Deterministic open-loop service traffic for the fitting-as-a-service
//! engine.
//!
//! A production characterization service sees a *stream*: mostly
//! predictions against already-fitted models, punctuated by fresh fits
//! when new late-stage samples land and evictions when a block is
//! re-spun. This module generates that stream deterministically so the
//! service benchmarks (`bmf_core::service` driven by `bmf-bench`) are
//! byte-reproducible:
//!
//! * **open-loop arrivals** — request timestamps follow a seeded
//!   exponential (Poisson-process) inter-arrival draw, independent of
//!   how fast the server happens to run, which is what exposes queueing
//!   tails (p99/p999) honestly;
//! * **mixed request kinds** — fit/predict/evict ratios are configured
//!   in permille and drawn per request;
//! * **skewed job popularity** — a hot subset of job ids receives the
//!   bulk of the traffic (characterization flows hammer the metrics of
//!   the block under revision), exercising registry shards unevenly;
//! * **point-set groups** — each job belongs to one shared sample-point
//!   group, so concurrent fits coalesce exactly as they would in a real
//!   many-metric characterization run.
//!
//! The generator emits request *descriptors* only (kind, job, group,
//! timestamp); payload synthesis (priors, response values, probe points)
//! belongs to the consumer, which keeps this module reusable for any
//! service front.

use bmf_stat::rng::{seeded, Rng};

/// What a traffic event asks the service to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Submit a fit request (enqueue + coalesce).
    Fit,
    /// Predict from the model registry.
    Predict,
    /// Evict the job's model from the registry.
    Evict,
}

/// One request descriptor in the simulated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Arrival timestamp in virtual nanoseconds since stream start.
    /// Strictly increasing across the stream.
    pub at_ns: u64,
    /// Request kind.
    pub kind: RequestKind,
    /// Job-id index in `0..jobs`.
    pub job: usize,
    /// Point-set group of the job (`job % groups`), fixed per job so
    /// fits, predictions, and evictions of one job are consistent.
    pub group: usize,
    /// Virtual-time deadline for fit requests, in nanoseconds since
    /// stream start: `at_ns + fit_deadline_slack_ns`. `None` for
    /// non-fit events and when the slack knob is zero. A consumer
    /// passes this straight to
    /// `FitService::submit_fit_with_deadline`, so a drain running
    /// behind virtual arrival time expires stale fits instead of
    /// serving them.
    pub deadline_ns: Option<u64>,
}

/// Traffic-shape configuration; see [`generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Total requests to generate.
    pub requests: usize,
    /// Mean exponential inter-arrival gap in virtual nanoseconds
    /// (clamped to ≥ 1.0; each drawn gap is rounded up to ≥ 1 ns so
    /// timestamps strictly increase).
    pub mean_interarrival_ns: f64,
    /// Fit share of traffic, in permille (0..=1000).
    pub fit_permille: u32,
    /// Evict share of traffic, in permille; the remainder after fits and
    /// evictions is predictions. `fit + evict` is clamped to 1000.
    pub evict_permille: u32,
    /// Job-id population size (clamped to ≥ 1).
    pub jobs: usize,
    /// Number of shared point-set groups (clamped to `1..=jobs`).
    pub groups: usize,
    /// Traffic share, in permille, directed at the *hot* fifth of the
    /// job population (clamped to ≤ 1000). 800 reproduces the classic
    /// 80/20 skew; 0 disables skew entirely.
    pub hot_permille: u32,
    /// Deadline slack granted to each fit request, in virtual
    /// nanoseconds after its arrival: event `deadline_ns` becomes
    /// `at_ns + slack` (saturating). 0 disables deadlines entirely
    /// (`deadline_ns` stays `None`).
    pub fit_deadline_slack_ns: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            requests: 100_000,
            mean_interarrival_ns: 1_000.0,
            fit_permille: 8,
            evict_permille: 4,
            jobs: 64,
            groups: 4,
            hot_permille: 800,
            fit_deadline_slack_ns: 0,
        }
    }
}

impl TrafficConfig {
    /// The configuration after clamping, as [`generate`] will use it.
    pub fn clamped(&self) -> TrafficConfig {
        let jobs = self.jobs.max(1);
        let fit = self.fit_permille.min(1000);
        TrafficConfig {
            requests: self.requests,
            mean_interarrival_ns: if self.mean_interarrival_ns >= 1.0 {
                self.mean_interarrival_ns
            } else {
                1.0
            },
            fit_permille: fit,
            evict_permille: self.evict_permille.min(1000 - fit),
            jobs,
            groups: self.groups.clamp(1, jobs),
            hot_permille: self.hot_permille.min(1000),
            fit_deadline_slack_ns: self.fit_deadline_slack_ns,
        }
    }
}

/// Generates the request stream for `config` from `seed`.
///
/// The stream is a pure function of `(config, seed)`: same inputs, same
/// events, byte for byte. Invalid configuration values are clamped (see
/// the field docs) rather than rejected, so the generator is total.
pub fn generate(config: &TrafficConfig, seed: u64) -> Vec<TrafficEvent> {
    let cfg = config.clamped();
    let mut rng = seeded(seed);
    let hot_jobs = cfg.jobs.div_ceil(5).max(1);
    let mut events = Vec::with_capacity(cfg.requests);
    let mut t_ns: u64 = 0;
    for _ in 0..cfg.requests {
        t_ns = t_ns.saturating_add(exponential_gap_ns(&mut rng, cfg.mean_interarrival_ns));
        let kind = match permille_draw(&mut rng) {
            p if p < cfg.fit_permille => RequestKind::Fit,
            p if p < cfg.fit_permille + cfg.evict_permille => RequestKind::Evict,
            _ => RequestKind::Predict,
        };
        let job = if permille_draw(&mut rng) < cfg.hot_permille {
            rng.gen_index(hot_jobs)
        } else {
            rng.gen_index(cfg.jobs)
        };
        let deadline_ns = match kind {
            RequestKind::Fit if cfg.fit_deadline_slack_ns > 0 => {
                Some(t_ns.saturating_add(cfg.fit_deadline_slack_ns))
            }
            _ => None,
        };
        events.push(TrafficEvent {
            at_ns: t_ns,
            kind,
            job,
            group: job % cfg.groups,
            deadline_ns,
        });
    }
    events
}

/// One late-stage sample arrival: a finished post-layout simulation
/// whose result is ready to stream into a job's sequential estimator
/// (`bmf_core::service::FitService::append_sample`).
///
/// The cost field is in *millihours* (thousandths of a simulator hour)
/// so the event stays `Copy + Eq` — exactly comparable across runs —
/// while still resolving sub-hour simulations; divide by 1000.0 when
/// charging a `CostLedger`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Completion timestamp in virtual nanoseconds since stream start.
    /// Strictly increasing across the stream.
    pub at_ns: u64,
    /// Job-id index in `0..jobs`.
    pub job: usize,
    /// Simulator time this sample cost, in millihours.
    pub cost_millihours: u64,
}

/// Shape of a late-stage arrival stream; see [`generate_arrivals`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalConfig {
    /// Total sample arrivals to generate.
    pub arrivals: usize,
    /// Mean exponential inter-arrival gap in virtual nanoseconds
    /// (clamped to ≥ 1.0; each drawn gap is rounded up to ≥ 1 ns so
    /// timestamps strictly increase).
    pub mean_interarrival_ns: f64,
    /// Job-id population size (clamped to ≥ 1); arrivals spread
    /// uniformly over it.
    pub jobs: usize,
    /// Minimum simulator cost per sample, in millihours.
    pub base_cost_millihours: u64,
    /// Uniform extra cost in `0..=spread` millihours drawn per sample —
    /// post-layout runs of one testbench vary with the corner being
    /// simulated.
    pub cost_spread_millihours: u64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            arrivals: 256,
            // Post-layout samples land far apart compared to service
            // requests: one every ~10 ms of virtual time by default.
            mean_interarrival_ns: 10_000_000.0,
            jobs: 8,
            // ~2 simulator hours ± 50% — the scale the paper reports for
            // transistor-level post-layout runs.
            base_cost_millihours: 1_000,
            cost_spread_millihours: 2_000,
        }
    }
}

impl ArrivalConfig {
    /// The configuration after clamping, as [`generate_arrivals`] will
    /// use it.
    pub fn clamped(&self) -> ArrivalConfig {
        ArrivalConfig {
            arrivals: self.arrivals,
            mean_interarrival_ns: if self.mean_interarrival_ns >= 1.0 {
                self.mean_interarrival_ns
            } else {
                1.0
            },
            jobs: self.jobs.max(1),
            base_cost_millihours: self.base_cost_millihours,
            cost_spread_millihours: self.cost_spread_millihours,
        }
    }
}

/// Generates the late-stage arrival stream for `config` from `seed` — the
/// event feed for streaming-append benchmarks and cost-aware stopping
/// studies.
///
/// Like [`generate`], the stream is a pure function of `(config, seed)`:
/// same inputs, same events, byte for byte, and invalid configuration
/// values are clamped rather than rejected.
pub fn generate_arrivals(config: &ArrivalConfig, seed: u64) -> Vec<ArrivalEvent> {
    let cfg = config.clamped();
    let mut rng = seeded(seed);
    let mut events = Vec::with_capacity(cfg.arrivals);
    let mut t_ns: u64 = 0;
    for _ in 0..cfg.arrivals {
        t_ns = t_ns.saturating_add(exponential_gap_ns(&mut rng, cfg.mean_interarrival_ns));
        let job = rng.gen_index(cfg.jobs);
        let cost_millihours = cfg
            .base_cost_millihours
            .saturating_add(rng.gen_index(cfg.cost_spread_millihours as usize + 1) as u64);
        events.push(ArrivalEvent {
            at_ns: t_ns,
            job,
            cost_millihours,
        });
    }
    events
}

/// A uniform draw in `0..1000`, the permille scale the mix knobs use.
fn permille_draw(rng: &mut Rng) -> u32 {
    rng.gen_index(1000) as u32
}

/// One exponential inter-arrival gap, rounded up to at least 1 ns so
/// consecutive timestamps strictly increase.
fn exponential_gap_ns(rng: &mut Rng, mean_ns: f64) -> u64 {
    // Inverse-CDF transform; next_f64 is in [0, 1), so 1 - u is in
    // (0, 1] and the log argument never hits zero.
    let u = rng.next_f64();
    let gap = -mean_ns * (1.0 - u).ln();
    if gap >= 1.0 {
        // Gaps beyond u64 range cannot occur for sane means (ln ≤ ~709),
        // but saturate anyway to keep the generator total.
        if gap >= u64::MAX as f64 {
            u64::MAX
        } else {
            gap as u64
        }
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let cfg = TrafficConfig {
            requests: 5_000,
            ..TrafficConfig::default()
        };
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a, b);
        let c = generate(&cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_strictly_increase() {
        let cfg = TrafficConfig {
            requests: 10_000,
            mean_interarrival_ns: 2.0,
            ..TrafficConfig::default()
        };
        let events = generate(&cfg, 3);
        for pair in events.windows(2) {
            assert!(pair[1].at_ns > pair[0].at_ns);
        }
    }

    #[test]
    fn mix_ratios_are_roughly_respected() {
        let cfg = TrafficConfig {
            requests: 200_000,
            fit_permille: 100,
            evict_permille: 50,
            ..TrafficConfig::default()
        };
        let events = generate(&cfg, 11);
        let fits = events.iter().filter(|e| e.kind == RequestKind::Fit).count() as f64;
        let evicts = events
            .iter()
            .filter(|e| e.kind == RequestKind::Evict)
            .count() as f64;
        let n = events.len() as f64;
        assert!((fits / n - 0.10).abs() < 0.01, "fit share {}", fits / n);
        assert!(
            (evicts / n - 0.05).abs() < 0.01,
            "evict share {}",
            evicts / n
        );
    }

    #[test]
    fn hot_jobs_receive_the_bulk_of_traffic() {
        let cfg = TrafficConfig {
            requests: 100_000,
            jobs: 50,
            hot_permille: 800,
            ..TrafficConfig::default()
        };
        let events = generate(&cfg, 5);
        let hot = events.iter().filter(|e| e.job < 10).count() as f64;
        let share = hot / events.len() as f64;
        // 80% targeted + uniform spillover into the same ids.
        assert!(share > 0.78, "hot share {share}");
    }

    #[test]
    fn jobs_and_groups_stay_in_range_and_consistent() {
        let cfg = TrafficConfig {
            requests: 20_000,
            jobs: 7,
            groups: 3,
            ..TrafficConfig::default()
        };
        let events = generate(&cfg, 9);
        for e in &events {
            assert!(e.job < 7);
            assert_eq!(e.group, e.job % 3);
        }
    }

    #[test]
    fn arrival_stream_is_deterministic_and_well_formed() {
        let cfg = ArrivalConfig {
            arrivals: 4_000,
            jobs: 5,
            base_cost_millihours: 500,
            cost_spread_millihours: 1_500,
            ..ArrivalConfig::default()
        };
        let a = generate_arrivals(&cfg, 21);
        let b = generate_arrivals(&cfg, 21);
        assert_eq!(a, b);
        assert_ne!(a, generate_arrivals(&cfg, 22));
        assert_eq!(a.len(), 4_000);
        for pair in a.windows(2) {
            assert!(pair[1].at_ns > pair[0].at_ns);
        }
        for e in &a {
            assert!(e.job < 5);
            assert!((500..=2_000).contains(&e.cost_millihours));
        }
        // The spread knob is actually exercised.
        let costs: std::collections::BTreeSet<u64> = a.iter().map(|e| e.cost_millihours).collect();
        assert!(costs.len() > 100, "only {} distinct costs", costs.len());
    }

    #[test]
    fn degenerate_arrival_configs_are_clamped_not_panicked() {
        let cfg = ArrivalConfig {
            arrivals: 64,
            mean_interarrival_ns: 0.0,
            jobs: 0,
            base_cost_millihours: 0,
            cost_spread_millihours: 0,
        };
        let events = generate_arrivals(&cfg, 1);
        assert_eq!(events.len(), 64);
        assert!(events.iter().all(|e| e.job == 0 && e.cost_millihours == 0));
    }

    #[test]
    fn degenerate_configs_are_clamped_not_panicked() {
        let cfg = TrafficConfig {
            requests: 100,
            mean_interarrival_ns: 0.0,
            fit_permille: 2_000,
            evict_permille: 2_000,
            jobs: 0,
            groups: 0,
            hot_permille: 5_000,
            fit_deadline_slack_ns: 0,
        };
        let events = generate(&cfg, 1);
        assert_eq!(events.len(), 100);
        // fit clamps to 1000 permille, evict to 0: every event is a fit.
        assert!(events.iter().all(|e| e.kind == RequestKind::Fit));
        assert!(events.iter().all(|e| e.job == 0 && e.group == 0));
        // Slack 0 means no deadlines, even on an all-fit stream.
        assert!(events.iter().all(|e| e.deadline_ns.is_none()));
    }

    #[test]
    fn deadline_slack_stamps_fits_and_only_fits() {
        let cfg = TrafficConfig {
            requests: 50_000,
            fit_permille: 200,
            evict_permille: 100,
            fit_deadline_slack_ns: 2_500,
            ..TrafficConfig::default()
        };
        let events = generate(&cfg, 13);
        assert!(events.iter().any(|e| e.kind == RequestKind::Fit));
        for e in &events {
            match e.kind {
                RequestKind::Fit => {
                    assert_eq!(e.deadline_ns, Some(e.at_ns + 2_500));
                }
                _ => assert_eq!(e.deadline_ns, None),
            }
        }
        // The knob changes only the deadline stamps, not the draw
        // sequence: the stream is otherwise identical to slack 0.
        let plain = generate(
            &TrafficConfig {
                fit_deadline_slack_ns: 0,
                ..cfg
            },
            13,
        );
        for (a, b) in events.iter().zip(&plain) {
            assert_eq!(
                (a.at_ns, a.kind, a.job, a.group),
                (b.at_ns, b.kind, b.job, b.group)
            );
        }
    }
}
