//! Deterministic load generator for the fitting service
//! (`cargo bench -p bmf-bench --bench service`).
//!
//! Replays a seeded open-loop request stream
//! ([`bmf_circuits::traffic`]) against a real
//! [`bmf_core::service::FitService`]: fit requests are submitted,
//! coalesced, and solved by the actual batch engine; predictions and
//! evictions hit the actual registry. What is *simulated* is time:
//! latencies are computed in **virtual nanoseconds** from the stream's
//! arrival timestamps and a fixed cost model applied to the service's
//! schedule-independent work counters, never from the wall clock. That
//! is what makes the emitted `BENCH_service.json` byte-identical across
//! machines, runs, and `BMF_THREADS` settings — the numbers move only
//! when the *work* changes (more kernels built, worse coalescing, extra
//! solves), which is exactly what a CI trend gate should detect.
//!
//! Virtual-time model:
//!
//! * fit requests wait in the coalescing queue; a drain fires when the
//!   queue reaches `max_coalesce` or the oldest request has waited
//!   `coalesce_window_ns`;
//! * drained batches execute sequentially on a single virtual server,
//!   each batch costing [`BATCH_BASE_NS`] plus per-kernel, per-solve,
//!   and per-job terms taken from its real [`BatchSummary`] counters;
//!   every request in a batch completes when its batch does, so fit
//!   latency = queueing delay + executor backlog + batch cost;
//! * predictions and evictions are served lock-light off the registry
//!   and are charged flat costs (no queueing).
//!
//! The report is written through [`crate::study`]. A run that serves no
//! fit, or times a zero fit p99 or throughput, fails instead.

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::traffic::{RequestKind, TrafficConfig, TrafficEvent};
use bmf_core::hyper::log_grid;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, ServiceConfig, Ticket};
use bmf_core::BmfError;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::study::{self, Fixed, LatencySummary, ReportWriter};

/// Fixed virtual cost charged per coalesced batch run (dispatch, design
/// matrix reuse, result installation).
pub const BATCH_BASE_NS: u64 = 25_000;
/// Virtual cost per Woodbury kernel actually factorized in a batch.
pub const KERNEL_NS: u64 = 6_000;
/// Virtual cost per MAP system solved in a batch.
pub const SOLVE_NS: u64 = 1_200;
/// Virtual per-job overhead within a batch (fold bookkeeping, model
/// extraction).
pub const JOB_NS: u64 = 2_000;
/// Virtual base cost of a registry prediction.
pub const PREDICT_BASE_NS: u64 = 300;
/// Virtual per-basis-term cost of evaluating a prediction.
pub const PREDICT_TERM_NS: u64 = 25;
/// Virtual cost of a successful eviction.
pub const EVICT_NS: u64 = 200;
/// Virtual cost of a registry miss (predict or evict on an absent key).
pub const MISS_NS: u64 = 150;

/// Load-scenario configuration; use [`LoadConfig::full`] or
/// [`LoadConfig::smoke`] and tweak fields as needed.
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
    /// Mean exponential inter-arrival gap in virtual ns.
    pub mean_interarrival_ns: f64,
    /// Oldest-request wait that forces a drain.
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

    /// CI-sized scenario (2% of full traffic, same shape): proves the
    /// whole engine end to end in a couple of seconds.
    pub fn smoke() -> Self {
        LoadConfig {
            requests: 20_000,
            ..LoadConfig::full()
        }
    }
}

/// Everything one load run produces.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The byte-deterministic report, ready to write to
    /// `BENCH_service.json`.
    pub json: String,
    /// Latency over every request kind.
    pub overall: LatencySummary,
    /// Latency of fit requests (queueing + batch execution).
    pub fit: LatencySummary,
    /// Virtual requests per second over the stream makespan.
    pub throughput_rps: f64,
    /// Final service-wide counters.
    pub counters: bmf_core::service::ServiceCounters,
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
/// returns the deterministic report.
///
/// # Errors
///
/// Propagates service construction and point-registration errors and
/// fails a run that serves no fit or reports a zero fit p99 or
/// throughput; per-request failures are counted, not propagated.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadOutcome, BmfError> {
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
    let options = FitOptions::new()
        .folds(4)
        .grid(log_grid(1e-3, 1e3, 9))
        .seed(derive_seed(cfg.seed, 2))
        .threads(0); // consult BMF_THREADS; results are thread-invariant
    let (folds, grid) = (options.folds, options.grid.len());
    let service = FitService::new(ServiceConfig {
        shards: 8,
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
        predict_cost_ns: PREDICT_BASE_NS + PREDICT_TERM_NS * terms as u64,
        pending: Vec::new(),
        arrivals: std::collections::BTreeMap::new(),
        server_busy_until_ns: 0,
        lat_all: Vec::with_capacity(events.len()),
        lat_fit: Vec::new(),
        lat_predict: Vec::new(),
        fit_errors: 0,
        last_completion_ns: 0,
    };

    for (i, ev) in events.iter().enumerate() {
        engine.step(ev, &probes[i % probes.len()]);
    }
    // Final timer-driven drain for whatever is still queued.
    if let Some(&oldest) = engine.pending.first() {
        engine.drain_at(oldest + engine.window_ns);
    }

    let last_arrival = events.last().map_or(0, |e| e.at_ns);
    let makespan_ns = engine.last_completion_ns.max(last_arrival).max(1);
    let throughput_rps = events.len() as f64 / (makespan_ns as f64 / 1e9);

    let overall = LatencySummary::of(&mut engine.lat_all);
    let fit = LatencySummary::of(&mut engine.lat_fit);
    let predict = LatencySummary::of(&mut engine.lat_predict);
    let counters = service.counters();
    study::ensure("service_load", counters.fits_ok > 0, "fits_ok > 0")?;
    study::ensure("service_load", fit.p99_ns > 0, "latency_fit.p99_ns > 0")?;
    study::ensure("service_load", throughput_rps > 0.0, "throughput_rps > 0")?;

    let mut report = ReportWriter::default();
    report.section("scenario", |s| {
        s.field("requests", cfg.requests);
        s.field("seed", cfg.seed);
        s.field("vars", basis.num_vars());
        s.field("terms", terms);
        s.field("samples", cfg.samples.max(terms));
        s.field("jobs", traffic.jobs);
        s.field("groups", traffic.groups);
        s.field("folds", folds);
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
    report.section("latency_overall", |s| overall.write(s));
    report.section("latency_fit", |s| fit.write(s));
    report.section("latency_predict", |s| predict.write(s));
    report.scalar("throughput_rps", Fixed(throughput_rps, 3));

    Ok(LoadOutcome {
        json: report.finish()?,
        overall,
        fit,
        throughput_rps,
        counters,
    })
}

/// The replay engine's mutable state; see the module docs for the
/// virtual-time model.
struct Engine<'a> {
    service: &'a FitService,
    jobs: &'a [JobPayload],
    group_sets: &'a [(bmf_core::service::PointSetId, Vec<Vec<f64>>)],
    window_ns: u64,
    max_coalesce: usize,
    predict_cost_ns: u64,
    /// Arrival timestamps of queued fit requests, oldest first.
    pending: Vec<u64>,
    /// Arrival timestamp per outstanding ticket.
    arrivals: std::collections::BTreeMap<Ticket, u64>,
    server_busy_until_ns: u64,
    lat_all: Vec<u64>,
    lat_fit: Vec<u64>,
    lat_predict: Vec<u64>,
    fit_errors: u64,
    last_completion_ns: u64,
}

impl Engine<'_> {
    fn step(&mut self, ev: &TrafficEvent, probe: &[f64]) {
        // Timer: drain when the oldest queued request's window expires
        // before this event arrives.
        while let Some(&oldest) = self.pending.first() {
            let deadline = oldest + self.window_ns;
            if ev.at_ns >= deadline {
                self.drain_at(deadline);
            } else {
                break;
            }
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
                    Ok(ticket) => {
                        self.pending.push(ev.at_ns);
                        self.arrivals.insert(ticket, ev.at_ns);
                        if self.pending.len() >= self.max_coalesce {
                            self.drain_at(ev.at_ns);
                        }
                    }
                    Err(_) => {
                        // Rejected at the boundary: charged like a miss.
                        self.fit_errors += 1;
                        self.record(ev.at_ns, MISS_NS, Kind::Fit);
                    }
                }
            }
            RequestKind::Predict => {
                let cost = match self.service.predict(&job.job_id, probe) {
                    Ok(_) => self.predict_cost_ns,
                    Err(_) => MISS_NS,
                };
                self.record(ev.at_ns, cost, Kind::Predict);
            }
            RequestKind::Evict => {
                let cost = match self.service.evict(&job.job_id) {
                    Ok(()) => EVICT_NS,
                    Err(_) => MISS_NS,
                };
                self.record(ev.at_ns, cost, Kind::Other);
            }
        }
    }

    /// The basis every fit request shares (linear over the scenario's
    /// variables) — rebuilt per request to model real request payloads.
    fn fit_basis(&self) -> OrthonormalBasis {
        OrthonormalBasis::linear(self.group_sets[0].1[0].len())
    }

    /// Drains the service queue at virtual time `now_ns`, runs the real
    /// batch engine, and completes each drained ticket on the virtual
    /// single-server executor.
    fn drain_at(&mut self, now_ns: u64) {
        self.pending.clear();
        let report = self.service.drain();
        // Batches execute back to back; compute each batch's completion
        // time once from its schedule-independent counters.
        self.server_busy_until_ns = self.server_busy_until_ns.max(now_ns);
        let mut batch_done_ns = Vec::with_capacity(report.batches.len());
        for b in &report.batches {
            let cost = BATCH_BASE_NS
                + KERNEL_NS * b.counters.kernels_built as u64
                + SOLVE_NS * b.counters.map_solves as u64
                + JOB_NS * b.jobs as u64;
            self.server_busy_until_ns += cost;
            batch_done_ns.push(self.server_busy_until_ns);
        }
        for outcome in &report.outcomes {
            let arrival = self.arrivals.remove(&outcome.ticket).unwrap_or(now_ns);
            let done = match outcome.batch {
                Some(i) => batch_done_ns.get(i).copied().unwrap_or(now_ns),
                // Failed before producing a fit: rejected at batch entry.
                None => now_ns + MISS_NS,
            };
            if outcome.result.is_err() {
                self.fit_errors += 1;
            }
            self.record(arrival, done.saturating_sub(arrival), Kind::Fit);
        }
    }

    fn record(&mut self, arrival_ns: u64, latency_ns: u64, kind: Kind) {
        self.last_completion_ns = self.last_completion_ns.max(arrival_ns + latency_ns);
        self.lat_all.push(latency_ns);
        match kind {
            Kind::Fit => self.lat_fit.push(latency_ns),
            Kind::Predict => self.lat_predict.push(latency_ns),
            Kind::Other => {}
        }
    }
}

enum Kind {
    Fit,
    Predict,
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit-test scenario: dense fits and a short window so drains,
    /// coalescing, and warm predictions all happen within 2k requests.
    fn tiny() -> LoadConfig {
        LoadConfig {
            requests: 2_000,
            fit_permille: 300,
            evict_permille: 50,
            coalesce_window_ns: 100_000,
            ..LoadConfig::smoke()
        }
    }

    #[test]
    fn load_run_is_byte_deterministic() {
        let a = run_load(&tiny()).expect("load run");
        let b = run_load(&tiny()).expect("load run");
        assert_eq!(a.json, b.json);
    }

    #[test]
    fn load_run_serves_all_kinds() {
        let out = run_load(&tiny()).expect("load run");
        assert!(out.counters.fits_ok > 0, "no fits served");
        assert!(out.counters.predicts > 0, "no predictions served");
        assert!(
            out.counters.predict_misses > 0,
            "cold-start predicts should miss"
        );
        assert_eq!(
            out.overall.count, 2_000,
            "every request must be accounted for"
        );
        assert!(out.throughput_rps > 0.0);
        // Clean workload: every fit request is served, none rejected.
        assert_eq!(out.counters.fits_ok, out.fit.count);
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
    fn coalescing_actually_happens() {
        let out = run_load(&tiny()).expect("load run");
        assert!(
            out.counters.coalesced_fits > 0,
            "window {}ns should coalesce concurrent fits",
            LoadConfig::full().coalesce_window_ns
        );
        assert!(
            out.counters.kernel_cache_hits > 0,
            "coalesced jobs share kernels"
        );
    }

    #[test]
    fn json_has_the_gated_keys() {
        let out = run_load(&tiny()).expect("load run");
        study::assert_has_keys(
            &out.json,
            "scenario traffic coalescing latency_overall latency_fit \
             latency_predict throughput_rps p50_ns p99_ns p999_ns max_ns \
             fits_ok batches",
        );
        assert!(
            !out.json.contains("wall"),
            "wall time must stay out of the JSON"
        );
    }
}
