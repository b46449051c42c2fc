//! Deterministic load generator for the fitting service, the study
//! behind `BENCH_service.json`.
//!
//! Replays a seeded open-loop request stream
//! ([`bmf_circuits::traffic`]) against a real
//! [`bmf_core::service::FitService`]: fit requests are submitted,
//! coalesced, and solved by the actual batch engine; predictions and
//! evictions hit the actual registry. The drain policy runs on the
//! stream's own arrival timestamps: a drain fires when the queue reaches
//! `max_coalesce` or when a request arrives after the oldest queued one
//! has waited `coalesce_window_ns`.
//!
//! `BENCH_service.json` holds what the service did: the traffic it
//! served and its schedule-independent work counters (batches, kernels
//! built and reused, MAP solves). They depend only on the scenario, so
//! the report is byte-identical across machines, runs, and `BMF_THREADS`
//! settings, and it moves only when the *work* changes (more kernels
//! built, worse coalescing, extra solves), which is exactly what its
//! golden test (`crates/bench/tests/golden_reports.rs`) rejects. How long
//! that work takes is wallbench's `serve_mix` to measure.
//!
//! The report is rendered through [`crate::study`]. A run that serves no
//! fit, or that never coalesces two fits into one batch, fails instead.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::traffic::{RequestKind, TrafficConfig, TrafficEvent};
use bmf_core::hyper::log_grid;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::BmfError;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{self, ReportWriter};

/// Load-scenario configuration; use [`LoadConfig::full`] and tweak
/// fields as needed.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Total requests to replay.
    pub requests: usize,
    /// Master seed for traffic, sample points, and per-job truths.
    pub seed: u64,
    /// Variation variables per sample point (linear basis over these).
    pub num_vars: usize,
    /// Sample points per shared point-set group.
    pub samples: usize,
    /// Distinct job ids (performance metrics) in the traffic.
    pub jobs: usize,
    /// Shared point-set groups (`job % groups` fixes membership).
    pub groups: usize,
    /// Fit share of traffic in permille.
    pub fit_permille: u32,
    /// Evict share of traffic in permille (remainder is predictions).
    pub evict_permille: u32,
    /// Mean exponential gap between the stream's arrival timestamps, in
    /// ns.
    pub mean_interarrival_ns: f64,
    /// Oldest-request wait, on the arrival timestamps, that forces a
    /// drain.
    pub coalesce_window_ns: u64,
    /// Queue depth that forces a drain (also the service's per-batch
    /// coalescing cap).
    pub max_coalesce: usize,
}

impl LoadConfig {
    /// The full-scale scenario behind the committed `BENCH_service.json`:
    /// one million requests over 64 jobs in 4 point-set groups.
    pub fn full() -> Self {
        LoadConfig {
            requests: 1_000_000,
            seed: 0x5EB71CE,
            num_vars: 12,
            samples: 24,
            jobs: 64,
            groups: 4,
            fit_permille: 8,
            evict_permille: 4,
            mean_interarrival_ns: 1_000.0,
            coalesce_window_ns: 5_000_000,
            max_coalesce: 64,
        }
    }
}

/// One job's fixed payload: its truth never changes across refits, so a
/// re-fitted model is bit-identical to the first fit.
struct JobPayload {
    job_id: String,
    group: usize,
    prior: Vec<Option<f64>>,
    values: Vec<f64>,
}

/// Replays the configured traffic against a fresh [`FitService`] and
/// returns the deterministic report, `BENCH_service.json` at
/// [`LoadConfig::full`].
///
/// # Errors
///
/// Propagates service construction and point-registration errors and
/// fails a run that serves no fit or runs a batch per fit (no
/// coalescing); per-request failures are counted, not propagated.
pub fn run_load(cfg: &LoadConfig) -> Result<String, BmfError> {
    let traffic = TrafficConfig {
        requests: cfg.requests,
        mean_interarrival_ns: cfg.mean_interarrival_ns,
        fit_permille: cfg.fit_permille,
        evict_permille: cfg.evict_permille,
        jobs: cfg.jobs,
        groups: cfg.groups,
        hot_permille: 800,
        fit_deadline_slack_ns: 0,
    };
    let traffic = traffic.clamped();
    let events = bmf_circuits::traffic::generate(&traffic, derive_seed(cfg.seed, 1));

    let basis = OrthonormalBasis::linear(cfg.num_vars.max(1));
    let terms = basis.len();
    let options = FitOptions::new().grid(log_grid(1e-3, 1e3, 9)).threads(0); // consult BMF_THREADS; results are thread-invariant
    let grid = options.grid.len();
    let service = FitService::new(ServiceConfig {
        max_coalesce: cfg.max_coalesce.max(1),
        options,
        ..ServiceConfig::default()
    })?;

    // One shared Monte-Carlo point set per group, registered up front.
    let mut rng = seeded(derive_seed(cfg.seed, 3));
    let mut normal = StandardNormal::new();
    let mut group_sets = Vec::with_capacity(traffic.groups);
    for _ in 0..traffic.groups {
        let points: Vec<Vec<f64>> = (0..cfg.samples.max(terms))
            .map(|_| normal.sample_vec(&mut rng, basis.num_vars()))
            .collect();
        group_sets.push((service.register_points(points.clone())?, points));
    }

    // Per-job linear truth over its group's points; the early prior is a
    // mildly perturbed copy, the BMF sweet spot.
    let jobs: Vec<JobPayload> = (0..traffic.jobs)
        .map(|j| {
            let group = j % traffic.groups;
            let truth: Vec<f64> = (0..terms)
                .map(|i| ((i + 7 * j) as f64 * 0.31).cos() * (1.0 + j as f64 * 0.05))
                .collect();
            let values = study::linear_values(&truth, &group_sets[group].1);
            let prior: Vec<Option<f64>> = truth
                .iter()
                .enumerate()
                .map(|(i, t)| Some(t * (1.0 + 0.04 * ((i + j) as f64).sin())))
                .collect();
            JobPayload {
                job_id: format!("job{j}"),
                group,
                prior,
                values,
            }
        })
        .collect();

    // Probe pool for predictions, cycled deterministically.
    let probes: Vec<Vec<f64>> = (0..64)
        .map(|_| normal.sample_vec(&mut rng, basis.num_vars()))
        .collect();

    let mut engine = Engine {
        service: &service,
        jobs: &jobs,
        group_sets: &group_sets,
        window_ns: cfg.coalesce_window_ns.max(1),
        max_coalesce: cfg.max_coalesce.max(1),
        oldest_ns: None,
        queued: 0,
        fit_errors: 0,
    };

    for (i, ev) in events.iter().enumerate() {
        engine.step(ev, &probes[i % probes.len()]);
    }
    // Final drain for whatever is still queued.
    if engine.queued > 0 {
        engine.drain();
    }

    let counters = service.counters();
    study::ensure("service_load", counters.fits_ok > 0, "fits_ok > 0")?;
    study::ensure(
        "service_load",
        counters.batches < counters.fits_ok,
        "batches < fits_ok",
    )?;

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("requests", cfg.requests);
        s.field("seed", cfg.seed);
        s.field("vars", basis.num_vars());
        s.field("terms", terms);
        s.field("samples", cfg.samples.max(terms));
        s.field("jobs", traffic.jobs);
        s.field("groups", traffic.groups);
        s.field("grid", grid);
        s.field("max_coalesce", cfg.max_coalesce.max(1));
        s.field("coalesce_window_ns", cfg.coalesce_window_ns.max(1));
        s.field("fit_permille", traffic.fit_permille);
        s.field("evict_permille", traffic.evict_permille);
    });
    report.section("traffic", |s| {
        s.field("fits_ok", counters.fits_ok);
        s.field("fit_errors", engine.fit_errors);
        s.field("predicts", counters.predicts);
        s.field("predict_misses", counters.predict_misses);
        s.field("evictions", counters.evictions);
        s.field("evict_misses", counters.evict_misses);
    });
    report.section("coalescing", |s| {
        s.field("batches", counters.batches);
        s.field("coalesced_fits", counters.coalesced_fits);
        s.field("max_batch", counters.max_batch);
        s.field("isolation_refits", counters.isolation_refits);
        s.field("kernel_cache_hits", counters.kernel_cache_hits);
        s.field("kernel_cache_misses", counters.kernel_cache_misses);
        s.field("map_solves", counters.map_solves);
        s.field("degraded_fits", counters.degraded_fits);
    });

    report.finish()
}

/// The replay engine's mutable state; see the module docs for the drain
/// policy.
struct Engine<'a> {
    service: &'a FitService,
    jobs: &'a [JobPayload],
    group_sets: &'a [(bmf_core::service::PointSetId, Vec<Vec<f64>>)],
    window_ns: u64,
    max_coalesce: usize,
    /// Arrival timestamp of the oldest queued fit request.
    oldest_ns: Option<u64>,
    /// Fit requests queued since the last drain.
    queued: usize,
    fit_errors: u64,
}

impl Engine<'_> {
    fn step(&mut self, ev: &TrafficEvent, probe: &[f64]) {
        // Timer: drain when the oldest queued request's window expired
        // before this event arrived.
        if self
            .oldest_ns
            .is_some_and(|oldest| ev.at_ns >= oldest + self.window_ns)
        {
            self.drain();
        }
        let job = &self.jobs[ev.job % self.jobs.len().max(1)];
        match ev.kind {
            RequestKind::Fit => {
                let request = FitRequest {
                    job_id: job.job_id.clone(),
                    basis: self.fit_basis(),
                    points: self.group_sets[job.group].0,
                    prior: job.prior.clone(),
                    values: job.values.clone(),
                };
                match self.service.submit_fit(request) {
                    Ok(_) => {
                        self.oldest_ns.get_or_insert(ev.at_ns);
                        self.queued += 1;
                        if self.queued >= self.max_coalesce {
                            self.drain();
                        }
                    }
                    Err(_) => self.fit_errors += 1,
                }
            }
            RequestKind::Predict => {
                let _ = self.service.predict(&job.job_id, probe);
            }
            RequestKind::Evict => {
                let _ = self.service.evict(&job.job_id);
            }
        }
    }

    /// The basis every fit request shares (linear over the scenario's
    /// variables) — rebuilt per request to model real request payloads.
    fn fit_basis(&self) -> OrthonormalBasis {
        OrthonormalBasis::linear(self.group_sets[0].1[0].len())
    }

    /// Drains the service queue through the real batch engine and
    /// counts the fits that drained to an error.
    fn drain(&mut self) {
        self.oldest_ns = None;
        self.queued = 0;
        let report = self.service.drain();
        self.fit_errors += report
            .outcomes
            .iter()
            .filter(|outcome| outcome.result.is_err())
            .count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test scenario: dense fits and a short window so drains and
    /// coalescing happen within 2k requests.
    fn tiny() -> LoadConfig {
        LoadConfig {
            requests: 2_000,
            fit_permille: 300,
            evict_permille: 50,
            coalesce_window_ns: 100_000,
            ..LoadConfig::full()
        }
    }

    #[test]
    fn load_run_is_byte_deterministic() {
        let a = run_load(&tiny()).expect("load run");
        let b = run_load(&tiny()).expect("load run");
        assert_eq!(a, b);
    }

    #[test]
    fn load_run_serves_all_kinds() {
        let json = run_load(&tiny()).expect("load run");
        let c = |key| study::counter(&json, key);
        assert!(c("fits_ok") > 0, "no fits served");
        assert!(c("predicts") > 0, "no predictions served");
        assert!(c("predict_misses") > 0, "cold-start predicts should miss");
        assert_eq!(
            c("fits_ok")
                + c("fit_errors")
                + c("predicts")
                + c("predict_misses")
                + c("evictions")
                + c("evict_misses"),
            2_000,
            "every request must be accounted for"
        );
        // Clean workload: every fit request is served, none rejected.
        assert_eq!(c("fit_errors"), 0);
    }

    #[test]
    fn a_run_without_fits_fails_its_headline_check() {
        let cfg = LoadConfig {
            fit_permille: 0,
            ..tiny()
        };
        let err = run_load(&cfg).expect_err("a run that serves no fit must fail");
        assert!(err.to_string().contains("fits_ok > 0"), "{err}");
    }

    #[test]
    fn a_run_without_coalescing_fails_its_headline_check() {
        let cfg = LoadConfig {
            max_coalesce: 1,
            ..tiny()
        };
        let err = run_load(&cfg).expect_err("a batch per fit must fail");
        assert!(err.to_string().contains("batches < fits_ok"), "{err}");
    }

    #[test]
    fn coalescing_actually_happens() {
        let json = run_load(&tiny()).expect("load run");
        assert!(
            study::counter(&json, "coalesced_fits") > 0,
            "window {}ns should coalesce concurrent fits",
            tiny().coalesce_window_ns
        );
        assert!(
            study::counter(&json, "kernel_cache_hits") > 0,
            "coalesced jobs share pattern systems"
        );
    }

    #[test]
    fn json_has_the_gated_keys() {
        let json = run_load(&tiny()).expect("load run");
        study::assert_has_keys(
            &json,
            "scenario traffic coalescing fits_ok fit_errors predicts batches \
             kernel_cache_misses map_solves",
        );
        assert!(
            !json.contains("wall"),
            "wall time must stay out of the JSON"
        );
    }
}
