//! `serve_mix`: open-loop request serving at one fixed offered rate.
//!
//! Traffic from `traffic::generate`: 8‰ fit, 4‰ evict, the rest predict,
//! over 64 jobs in 4 shared point-set groups with an 80/20 hot skew. The
//! payload has `service_load`'s shape: a linear basis over 12 variables,
//! 24 samples, 4 folds, a 9-point grid. One client thread sends on the
//! schedule; one server thread drains on the coalescing policy. Per-fit
//! math is small here, so queueing, coalescing, the registry and the
//! predict path set the latencies. The rate keeps the drain thread busy
//! roughly half the time, so queueing shows before saturation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::stage::Stage;
use bmf_circuits::traffic::{RequestKind, TrafficConfig};
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::hyper::log_grid;
use bmf_core::model::PerformanceModel;
use bmf_core::options::FitOptions;
use bmf_core::service::{FitRequest, FitService, PointSetId, ServiceConfig};
use bmf_core::BmfError;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::clock::{OpenLoop, WallClock};
use crate::inputs::{
    early_prior, push_f64s, push_prior, schedule, schedule_bytes, simulate, synthetic_metric, Due,
    SetupTimes,
};
use crate::layers::Shape;
use crate::outcome::{ClassCount, Outcome};
use crate::server::{self, Completion, Note, Policy};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Args, RunContext};

const JOBS: usize = 64;
const GROUPS: usize = 4;
const VARS: usize = 12;
const SAMPLES: usize = 24;
const FOLDS: usize = 4;
const GRID: usize = 9;
const SCHEMATIC_SAMPLES: usize = 2000;
const OMP_MAX_TERMS: usize = 13;
const PROBES: usize = 64;
/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 150_000.0;
const FIT_PERMILLE: u32 = 8;
const EVICT_PERMILLE: u32 = 4;
const HOT_PERMILLE: u32 = 800;
const WINDOW_NS: u64 = 5_000_000;
const MAX_COALESCE: usize = 64;
const FIT_LIMIT_MS: f64 = 250.0;
const PREDICT_LIMIT_US: f64 = 1_000.0;
const EVICT_LIMIT_US: f64 = 1_000.0;
/// One in this many predictions is checked against the direct model.
const PREDICT_CHECK_EVERY: usize = 16;
/// One in this many served fits is checked against the direct fit.
const FIT_CHECK_EVERY: usize = 4;

/// Canonical configuration text.
pub fn config() -> String {
    format!(
        "serve_mix jobs={JOBS} groups={GROUPS} vars={VARS} samples={SAMPLES} folds={FOLDS} \
         grid={GRID} schematic={SCHEMATIC_SAMPLES} omp_max_terms={OMP_MAX_TERMS} rate_per_s={RATE_PER_S} \
         fit_permille={FIT_PERMILLE} evict_permille={EVICT_PERMILLE} hot_permille={HOT_PERMILLE} \
         window_ns={WINDOW_NS} max_coalesce={MAX_COALESCE} server_threads=1 \
         fit_limit_ms={FIT_LIMIT_MS} predict_limit_us={PREDICT_LIMIT_US} evict_limit_us={EVICT_LIMIT_US}"
    )
}

fn options(seed: u64) -> FitOptions {
    FitOptions::new()
        .folds(FOLDS)
        .grid(log_grid(1e-3, 1e3, GRID))
        .seed(derive_seed(seed, 4))
        .threads(1)
}

/// The seeded inputs: payloads, probe points and the schedule.
pub struct Inputs {
    basis: OrthonormalBasis,
    /// Points of each group.
    group_points: Vec<Vec<Vec<f64>>>,
    /// One job per metric: label, prior, values at its group's points.
    jobs: Vec<BatchJob>,
    probes: Vec<Vec<f64>>,
    schedule: Vec<Due>,
}

impl Inputs {
    /// Builds every input from `seed`.
    pub fn generate(seed: u64, seconds: f64, times: &mut SetupTimes) -> Result<Self, String> {
        let mut group_points = vec![Vec::new(); GROUPS];
        let mut jobs = Vec::with_capacity(JOBS);
        for j in 0..JOBS {
            let metric = synthetic_metric(VARS, derive_seed(seed, 100 + j as u64));
            let prior = early_prior(
                &metric,
                SCHEMATIC_SAMPLES,
                OMP_MAX_TERMS,
                derive_seed(seed, 200 + j as u64),
                times,
            )?;
            let group = j % GROUPS;
            let late = simulate(
                &metric,
                Stage::PostLayout,
                SAMPLES,
                derive_seed(seed, 300 + group as u64),
                times,
            )?;
            group_points[group] = late.points;
            jobs.push(BatchJob::new(job_id(j), prior, late.values));
        }
        let mut rng = seeded(derive_seed(seed, 5));
        let mut normal = StandardNormal::new();
        let probes = (0..PROBES)
            .map(|_| normal.sample_vec(&mut rng, VARS))
            .collect();
        let traffic = TrafficConfig {
            fit_permille: FIT_PERMILLE,
            evict_permille: EVICT_PERMILLE,
            jobs: JOBS,
            groups: GROUPS,
            hot_permille: HOT_PERMILLE,
            ..TrafficConfig::default()
        };
        Ok(Inputs {
            basis: OrthonormalBasis::linear(VARS),
            group_points,
            jobs,
            probes,
            schedule: schedule(&traffic, RATE_PER_S, seconds, derive_seed(seed, 6)),
        })
    }

    /// Every input byte, for identity checks.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = schedule_bytes(&self.schedule);
        for p in self.group_points.iter().flatten().chain(&self.probes) {
            push_f64s(&mut out, p);
        }
        for j in &self.jobs {
            push_prior(&mut out, &j.prior);
            push_f64s(&mut out, &j.values);
        }
        out
    }
}

fn job_id(j: usize) -> String {
    format!("job{j:02}")
}

/// The set-up state: inputs, a service with every job fitted once, and
/// the payloads of the scheduled fits.
struct State {
    inputs: Inputs,
    service: FitService,
    /// The payload of every fit request in the schedule, in order, built
    /// ahead so sending one costs the client no copying.
    requests: Vec<FitRequest>,
}

fn setup(seed: u64, seconds: f64, times: &mut SetupTimes) -> Result<State, String> {
    let inputs = Inputs::generate(seed, seconds, times)?;
    let service = FitService::new(ServiceConfig {
        max_coalesce: MAX_COALESCE,
        options: options(seed),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service: {e}"))?;
    let sets = inputs
        .group_points
        .iter()
        .map(|p| service.register_points(p.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("register points: {e}"))?;
    for (j, job) in inputs.jobs.iter().enumerate() {
        service
            .submit_fit(request(&inputs, &sets, j, job))
            .map_err(|e| format!("warm-up submit: {e}"))?;
    }
    let report = service.drain();
    if report.served() != JOBS {
        return Err("warm-up drain did not fit every job".to_string());
    }
    let requests = inputs
        .schedule
        .iter()
        .filter(|d| d.kind == RequestKind::Fit)
        .map(|d| {
            let j = usize::from(d.job) % JOBS;
            request(&inputs, &sets, j, &inputs.jobs[j])
        })
        .collect();
    Ok(State {
        inputs,
        service,
        requests,
    })
}

fn request(inputs: &Inputs, sets: &[PointSetId], j: usize, job: &BatchJob) -> FitRequest {
    FitRequest {
        job_id: job.label.clone(),
        basis: inputs.basis.clone(),
        points: sets[j % GROUPS],
        prior: job.prior.clone(),
        values: job.values.clone(),
    }
}

/// Direct `BatchFitter` fits of every group: the reference models.
fn direct_models(inputs: &Inputs, seed: u64) -> Result<Vec<PerformanceModel>, String> {
    let mut models: Vec<Option<PerformanceModel>> = vec![None; JOBS];
    for g in 0..GROUPS {
        let members: Vec<usize> = (g..JOBS).step_by(GROUPS).collect();
        let report = BatchFitter::new(inputs.basis.clone())
            .with_options(options(seed))
            .with_jobs(members.iter().map(|&j| inputs.jobs[j].clone()).collect())
            .fit(&inputs.group_points[g])
            .map_err(|e| format!("direct batch fit: {e}"))?;
        for (j, fit) in members.into_iter().zip(report.fits) {
            models[j] = Some(fit.model);
        }
    }
    Ok(models.into_iter().flatten().collect())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the workload.
pub fn run(args: &Args, ctx: &mut RunContext) -> Outcome {
    let mut out = Outcome {
        config: config(),
        ..Outcome::default()
    };
    let mut state = match ctx.timed_setup(|times| setup(args.seed, args.seconds, times)) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.inputs_hash = crate::meta::hash(&state.inputs.bytes());
    let expected = match direct_models(&state.inputs, args.seed) {
        Ok(m) => m,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let by_id: HashMap<String, usize> = (0..JOBS).map(|j| (job_id(j), j)).collect();
    let requests = std::mem::take(&mut state.requests);
    // Highest client evict epoch at which each job's model was installed
    // (the warm-up fits count as epoch 0). The server stores with
    // Release after the drain that installed the model returns; the
    // client loads with Acquire before predicting, so a flag it sees
    // implies the registry insert is visible too.
    let installed: Vec<AtomicU64> = (0..JOBS).map(|_| AtomicU64::new(0)).collect();
    let (tx, rx) = mpsc::channel::<Note>();
    let clock = WallClock::start();
    let traced = ctx.tracer.enabled();
    let policy = Policy {
        window_ns: WINDOW_NS,
        max_coalesce: MAX_COALESCE,
    };
    let (client, (served, server_tracer, fits_checked, fit_mismatches)) = std::thread::scope(|s| {
        let (installed, by_id, expected, state, clock) =
            (&installed, &by_id, &expected, &state, &clock);
        let server = s.spawn(move || {
            let mut tracer = Tracer::new(traced, clock.origin());
            let (mut ok_seen, mut checked, mut mismatches) = (0usize, 0usize, 0usize);
            let mut hook =
                |report: &bmf_core::service::DrainReport, done: &[Completion], _: &mut Tracer| {
                    for c in done {
                        if let (Note::Fit { job, epoch, .. }, true) = (c.note, c.ok) {
                            installed[job].fetch_max(epoch, Ordering::Release);
                        }
                    }
                    for o in &report.outcomes {
                        let Ok(fit) = &o.result else { continue };
                        ok_seen += 1;
                        if ok_seen % FIT_CHECK_EVERY == 0 {
                            checked += 1;
                            let j = by_id.get(&o.job_id).copied().unwrap_or(0);
                            if !same_bits(fit.fit.model.coeffs(), expected[j].coeffs()) {
                                mismatches += 1;
                            }
                        }
                    }
                };
            let served = server::serve(&state.service, &rx, clock, policy, &mut tracer, &mut hook);
            (served, tracer, checked, mismatches)
        });
        let client = client_loop(
            state,
            requests,
            expected,
            installed,
            clock,
            tx,
            &mut ctx.tracer,
        );
        (client, server.join().expect("server thread panicked"))
    });

    // Fit outcomes, timed from their due times.
    let mut fit_class = client.fit_class_sent;
    let mut fit_ms = Vec::new();
    for c in &served.completions {
        if let Note::Fit { due_ns, .. } = c.note {
            let ms = c.done_ns.saturating_sub(due_ns) as f64 * 1e-6;
            fit_ms.push(ms);
            if c.ok {
                fit_class.ok += 1;
                fit_class.within_limit += u64::from(ms <= FIT_LIMIT_MS);
            } else {
                fit_class.failed += 1;
            }
        }
    }
    let c = state.service.counters();
    if c.shed_fits > 0 || c.expired_fits > 0 {
        out.fail(format!(
            "{} fits shed, {} expired",
            c.shed_fits, c.expired_fits
        ));
    }
    if client.predict_mismatches > 0 {
        out.fail(format!(
            "{} sampled predictions differ from PerformanceModel::predict",
            client.predict_mismatches
        ));
    }
    if fit_mismatches > 0 || fits_checked == 0 {
        out.fail(format!(
            "{fit_mismatches} of {fits_checked} sampled served fits differ from a direct BatchFitter fit"
        ));
    }
    let wall_s = served.wall_ns.max(1) as f64 * 1e-9;
    out.classes = vec![
        ("fit", fit_class),
        ("predict", client.predict_class),
        ("evict", client.evict_class),
    ];
    let completed: u64 = out.classes.iter().map(|(_, c)| c.ok).sum();
    let fits = Summary::of(&mut fit_ms);
    let mut predict_us = client.predict_us;
    let (predict_tail, predict_tail_p) = crate::stats::chunked_tail(&predict_us);
    let predicts = Summary::of(&mut predict_us);
    let mut lag_us: Vec<f64> = client.lateness_ns.iter().map(|ns| ns * 1e-3).collect();
    let lag = Summary::of(&mut lag_us);
    out.e2e("setup_s", "s", ctx.setup_s());
    out.e2e("throughput_per_s", "1/s", completed as f64 / wall_s);
    out.e2e("latency_p50_ms", "ms", fits.p50);
    out.detail("predict_p50_us", "us", predicts.p50);
    out.detail("predict_tail_us", "us", predict_tail);
    out.detail("predict_tail_percentile", "%", predict_tail_p);
    out.detail("predict_samples", "count", predicts.n as f64);
    out.e2e("slo_ratio", "ratio", out.slo_ratio());
    out.detail("offered_rps", "1/s", RATE_PER_S);
    out.detail("served_rps", "1/s", completed as f64 / wall_s);
    out.detail("fit_p50_ms", "ms", fits.p50);
    out.detail("fit_tail_ms", "ms", fits.tail);
    out.detail("fit_tail_percentile", "%", fits.tail_p);
    out.detail("fit_samples", "count", fits.n as f64);
    out.detail("gen_lag_tail_us", "us", lag.tail);
    out.detail(
        "failed_ratio",
        "ratio",
        out.failed() as f64 / out.attempted().max(1) as f64,
    );
    out.detail(
        "drain_busy_ratio",
        "ratio",
        served.drain_ns as f64 / served.wall_ns.max(1) as f64,
    );
    out.detail(
        "coalesce_mean",
        "count",
        served.fits as f64 / served.batches.max(1) as f64,
    );

    if traced && out.failures.is_empty() {
        let l = &mut ctx.layers;
        l.push(
            "service.busy_ratio",
            served.drain_ns as f64 / served.wall_ns.max(1) as f64,
        );
        l.push(
            "service.coalesce_mean",
            served.fits as f64 / served.batches.max(1) as f64,
        );
        l.push(
            "service.shed_ratio",
            c.shed_fits as f64 / fit_class.sent.max(1) as f64,
        );
        ctx.tracer.absorb(server_tracer);
        let members: Vec<BatchJob> = (0..JOBS)
            .step_by(GROUPS)
            .map(|j| state.inputs.jobs[j].clone())
            .collect();
        let opts = options(args.seed);
        let shape = Shape {
            basis: &state.inputs.basis,
            points: &state.inputs.group_points[0],
            jobs: &members,
            options: &opts,
            probes: &state.inputs.probes,
        };
        ctx.probe(&shape, &mut out);
    }
    out
}

/// What the client thread measured.
struct Client {
    fit_class_sent: ClassCount,
    predict_class: ClassCount,
    evict_class: ClassCount,
    predict_us: Vec<f64>,
    lateness_ns: Vec<f64>,
    predict_mismatches: usize,
}

fn client_loop(
    state: &State,
    requests: Vec<FitRequest>,
    expected: &[PerformanceModel],
    installed: &[AtomicU64],
    clock: &WallClock,
    tx: mpsc::Sender<Note>,
    tracer: &mut Tracer,
) -> Client {
    let inputs = &state.inputs;
    let service = &state.service;
    let ids: Vec<String> = (0..JOBS).map(job_id).collect();
    let mut epochs = vec![0u64; JOBS];
    let mut sender = OpenLoop::new(clock, inputs.schedule.len());
    let mut requests = requests.into_iter();
    let mut out = Client {
        fit_class_sent: ClassCount::default(),
        predict_class: ClassCount::default(),
        evict_class: ClassCount::default(),
        predict_us: crate::clock::touched(inputs.schedule.len()),
        lateness_ns: Vec::new(),
        predict_mismatches: 0,
    };
    for (i, due) in inputs.schedule.iter().enumerate() {
        let j = usize::from(due.job) % JOBS;
        let sent_ns = sender.send_at(due.at_ns);
        match due.kind {
            RequestKind::Fit => {
                out.fit_class_sent.sent += 1;
                let Some(req) = requests.next() else {
                    out.fit_class_sent.failed += 1;
                    continue;
                };
                match tracer.span("service.submit", |_| service.submit_fit(req)) {
                    Ok(ticket) => {
                        let note = Note::Fit {
                            ticket,
                            due_ns: due.at_ns,
                            sent_ns,
                            job: j,
                            epoch: epochs[j],
                        };
                        if tx.send(note).is_err() {
                            out.fit_class_sent.failed += 1;
                        }
                    }
                    Err(_) => out.fit_class_sent.failed += 1,
                }
            }
            RequestKind::Predict => {
                let present = installed[j].load(Ordering::Acquire) >= epochs[j];
                let x = &inputs.probes[i % PROBES];
                let result = if i % PREDICT_CHECK_EVERY == 0 {
                    tracer.span("service.predict_call", |_| service.predict(&ids[j], x))
                } else {
                    service.predict(&ids[j], x)
                };
                let us = sender.since_due(due.at_ns) as f64 * 1e-3;
                out.predict_us.push(us);
                let c = &mut out.predict_class;
                c.sent += 1;
                let ok = match result {
                    Ok(y) => {
                        if i % PREDICT_CHECK_EVERY == 0
                            && y.to_bits() != expected[j].predict(x).to_bits()
                        {
                            out.predict_mismatches += 1;
                        }
                        true
                    }
                    // An evicted model not yet refitted is a correct miss.
                    Err(BmfError::NotFound { .. }) => !present,
                    Err(_) => false,
                };
                if ok {
                    c.ok += 1;
                    c.within_limit += u64::from(us <= PREDICT_LIMIT_US);
                } else {
                    c.failed += 1;
                }
            }
            RequestKind::Evict => {
                epochs[j] += 1;
                let result = service.evict(&ids[j]);
                let us = sender.since_due(due.at_ns) as f64 * 1e-3;
                let c = &mut out.evict_class;
                c.sent += 1;
                match result {
                    Ok(()) | Err(BmfError::NotFound { .. }) => {
                        c.ok += 1;
                        c.within_limit += u64::from(us <= EVICT_LIMIT_US);
                    }
                    Err(_) => c.failed += 1,
                }
            }
        }
    }
    drop(tx);
    out.lateness_ns = sender.lateness_ns;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_byte_identical_per_seed() {
        let mut t = SetupTimes::default();
        let a = Inputs::generate(3, 0.2, &mut t).unwrap().bytes();
        let b = Inputs::generate(3, 0.2, &mut t).unwrap().bytes();
        let c = Inputs::generate(4, 0.2, &mut t).unwrap().bytes();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
