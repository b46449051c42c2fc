//! `stream_persist`: streamed updates beside reads, published to disk.
//!
//! Late-stage sample arrivals (`traffic::generate_arrivals`) over 32
//! streams enter through `FitService::append_sample` and are applied by
//! the server thread's drains; a small share of predictions reads the
//! streamed models. After every `PUBLISH_EVERY` applied appends the
//! server publishes the live snapshots with `ArtifactStore::export_service`
//! to a store on the real filesystem, compacts it after every
//! `COMPACT_EVERY` publishes, and warm-starts a fresh `FitService` from
//! it, whose predictions must equal the live service's. A stream that
//! reaches `STREAM_LEN` samples is replaced by a new job-id generation
//! and its old snapshot evicted, so the run stays stationary. The
//! sequential estimator and the store do the work; CV and the batch
//! kernels do none.

use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;

use bmf_basis::basis::OrthonormalBasis;
use bmf_circuits::stage::{CircuitPerformance, Stage};
use bmf_circuits::synthetic::SyntheticCircuit;
use bmf_circuits::traffic::{generate_arrivals, ArrivalConfig, RequestKind, TrafficConfig};
use bmf_core::batch::BatchJob;
use bmf_core::hyper::log_grid;
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::service::{DrainReport, FitService, ServiceConfig};
use bmf_persist::store::ArtifactStore;
use bmf_stat::normal::StandardNormal;
use bmf_stat::rng::{derive_seed, seeded};

use crate::clock::{OpenLoop, WallClock};
use crate::inputs::{
    early_prior, push_f64s, push_prior, schedule, schedule_bytes, synthetic_metric, Due, SetupTimes,
};
use crate::iovfs::TimingVfs;
use crate::layers::{self, Shape};
use crate::outcome::{ClassCount, Outcome};
use crate::server::{self, Completion, Note, Policy};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Args, RunContext};

const STREAMS: usize = 32;
const VARS: usize = 12;
const SCHEMATIC_SAMPLES: usize = 2000;
const OMP_MAX_TERMS: usize = 13;
/// Hyper-parameter of every streaming estimator.
const HYPER: f64 = 1.0;
/// Sample arrivals per second.
pub const APPEND_RATE_PER_S: f64 = 2_000.0;
/// Predictions per second.
pub const PREDICT_RATE_PER_S: f64 = 500.0;
/// Samples after which a stream is replaced by a new generation.
const STREAM_LEN: usize = 256;
/// Applied appends between publishes.
const PUBLISH_EVERY: usize = 512;
/// Publishes between compactions.
const COMPACT_EVERY: usize = 4;
const WINDOW_NS: u64 = 2_000_000;
const MAX_COALESCE: usize = 64;
const PROBES: usize = 16;
const APPEND_LIMIT_MS: f64 = 250.0;
const PREDICT_LIMIT_US: f64 = 1_000.0;

/// Canonical configuration text.
pub fn config() -> String {
    format!(
        "stream_persist streams={STREAMS} vars={VARS} schematic={SCHEMATIC_SAMPLES} \
         omp_max_terms={OMP_MAX_TERMS} hyper={HYPER} append_rate_per_s={APPEND_RATE_PER_S} \
         predict_rate_per_s={PREDICT_RATE_PER_S} stream_len={STREAM_LEN} publish_every={PUBLISH_EVERY} \
         compact_every={COMPACT_EVERY} window_ns={WINDOW_NS} max_coalesce={MAX_COALESCE} \
         append_limit_ms={APPEND_LIMIT_MS} predict_limit_us={PREDICT_LIMIT_US}"
    )
}

/// One sample arrival: when it is due, which stream, the point and the
/// simulated post-layout value.
#[derive(Debug, Clone, PartialEq)]
struct Arrival {
    at_ns: u64,
    stream: usize,
    point: Vec<f64>,
    value: f64,
}

/// The seeded inputs.
pub struct Inputs {
    basis: OrthonormalBasis,
    metrics: Vec<SyntheticCircuit>,
    priors: Vec<Vec<Option<f64>>>,
    arrivals: Vec<Arrival>,
    predicts: Vec<Due>,
    probes: Vec<Vec<f64>>,
}

impl Inputs {
    /// Builds every input from `seed`.
    pub fn generate(seed: u64, seconds: f64, times: &mut SetupTimes) -> Result<Self, String> {
        let mut metrics = Vec::with_capacity(STREAMS);
        let mut priors = Vec::with_capacity(STREAMS);
        for j in 0..STREAMS {
            let metric = synthetic_metric(VARS, derive_seed(seed, 100 + j as u64));
            priors.push(early_prior(
                &metric,
                SCHEMATIC_SAMPLES,
                OMP_MAX_TERMS,
                derive_seed(seed, 200 + j as u64),
                times,
            )?);
            metrics.push(metric);
        }
        let events = generate_arrivals(
            &ArrivalConfig {
                arrivals: (APPEND_RATE_PER_S * seconds) as usize,
                mean_interarrival_ns: 1e9 / APPEND_RATE_PER_S,
                jobs: STREAMS,
                ..ArrivalConfig::default()
            },
            derive_seed(seed, 7),
        );
        let mut rng = seeded(derive_seed(seed, 8));
        let mut normal = StandardNormal::new();
        let t = std::time::Instant::now();
        let mut arrivals = Vec::with_capacity(events.len());
        for e in events {
            let point = normal.sample_vec(&mut rng, VARS);
            let value = metrics[e.job]
                .evaluate(Stage::PostLayout, &point)
                .map_err(|err| format!("simulation: {err}"))?;
            arrivals.push(Arrival {
                at_ns: e.at_ns,
                stream: e.job,
                point,
                value,
            });
        }
        times.mc_ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let probes = (0..PROBES)
            .map(|_| normal.sample_vec(&mut rng, VARS))
            .collect();
        let traffic = TrafficConfig {
            fit_permille: 0,
            evict_permille: 0,
            jobs: STREAMS,
            groups: 1,
            ..TrafficConfig::default()
        };
        Ok(Inputs {
            basis: OrthonormalBasis::linear(VARS),
            metrics,
            priors,
            arrivals,
            predicts: schedule(&traffic, PREDICT_RATE_PER_S, seconds, derive_seed(seed, 9)),
            probes,
        })
    }

    /// Every input byte, for identity checks.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = schedule_bytes(&self.predicts);
        for a in &self.arrivals {
            out.extend_from_slice(&a.at_ns.to_le_bytes());
            out.extend_from_slice(&(a.stream as u64).to_le_bytes());
            push_f64s(&mut out, &a.point);
            push_f64s(&mut out, &[a.value]);
        }
        for p in &self.probes {
            push_f64s(&mut out, p);
        }
        for p in &self.priors {
            push_prior(&mut out, p);
        }
        out
    }

    fn prior(&self, j: usize) -> Prior {
        Prior::new(PriorKind::NonZeroMean, self.priors[j].clone())
    }
}

fn stream_id(j: usize, generation: usize) -> String {
    format!("s{j:02}.g{generation}")
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_coalesce: MAX_COALESCE,
        ..ServiceConfig::default()
    }
}

struct State {
    inputs: Inputs,
    service: FitService,
}

fn setup(seed: u64, seconds: f64, times: &mut SetupTimes) -> Result<State, String> {
    let inputs = Inputs::generate(seed, seconds, times)?;
    let service = FitService::new(service_config()).map_err(|e| format!("service: {e}"))?;
    for j in 0..STREAMS {
        service
            .register_stream(
                stream_id(j, 0),
                inputs.basis.clone(),
                &inputs.prior(j),
                HYPER,
            )
            .map_err(|e| format!("register stream: {e}"))?;
    }
    Ok(State { inputs, service })
}

/// The server thread's publishing side.
struct Publisher<'a> {
    service: &'a FitService,
    store: ArtifactStore,
    probes: &'a [Vec<f64>],
    applied: usize,
    publishes: usize,
    puts: usize,
    mismatches: usize,
    errors: Vec<String>,
    publish_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl Publisher<'_> {
    fn after_drain(&mut self, report: &DrainReport, tracer: &mut Tracer) {
        for a in &report.appends {
            if matches!(a.result, Ok(n) if n == STREAM_LEN)
                && self.service.evict(&a.job_id).is_err()
            {
                self.errors.push(format!("evicting {} failed", a.job_id));
            }
        }
        self.applied += report.appended();
        if self.applied < PUBLISH_EVERY {
            return;
        }
        self.applied = 0;
        let t0 = std::time::Instant::now();
        match tracer.span("persist.export", |_| {
            self.store.export_service(self.service)
        }) {
            Ok(ids) => self.puts += ids.len(),
            Err(e) => self.errors.push(format!("export failed: {e}")),
        }
        self.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.publishes += 1;
        if self.publishes.is_multiple_of(COMPACT_EVERY) {
            if let Err(e) = tracer.span("persist.compact", |_| self.store.compact()) {
                self.errors.push(format!("compact failed: {e}"));
            }
        }
        let fresh = match FitService::new(service_config()) {
            Ok(s) => s,
            Err(e) => {
                self.errors.push(format!("service: {e}"));
                return;
            }
        };
        let t1 = std::time::Instant::now();
        if let Err(e) = tracer.span("persist.warm_start", |_| self.store.warm_start(&fresh)) {
            self.errors.push(format!("warm start failed: {e}"));
            return;
        }
        self.warm_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        // Only this thread changes published models, so every live model
        // the store holds must predict exactly as the live service does.
        for id in fresh.job_ids() {
            let Some(live) = self.service.snapshot(&id) else {
                continue;
            };
            for x in self.probes.iter().take(2) {
                let warm = fresh.predict(&id, x).map(f64::to_bits).ok();
                if warm != Some(live.model.predict(x).to_bits()) {
                    self.mismatches += 1;
                }
            }
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, ctx: &mut RunContext) -> Outcome {
    let mut out = Outcome {
        config: config(),
        ..Outcome::default()
    };
    let state = match ctx.timed_setup(|times| setup(args.seed, args.seconds, times)) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.inputs_hash = crate::meta::hash(&state.inputs.bytes());
    let store_dir = ctx.scratch.join("stream-store");
    let vfs = Arc::new(TimingVfs::new());
    let store = match ArtifactStore::open_with(&store_dir, vfs.clone()) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("open store: {e}"));
            return out;
        }
    };
    let io_before = vfs.totals();
    let (tx, rx) = mpsc::channel::<Note>();
    let clock = WallClock::start();
    let traced = ctx.tracer.enabled();
    let policy = Policy {
        window_ns: WINDOW_NS,
        max_coalesce: MAX_COALESCE,
    };
    let mut publisher = Publisher {
        service: &state.service,
        store,
        probes: &state.inputs.probes,
        applied: 0,
        publishes: 0,
        puts: 0,
        mismatches: 0,
        errors: Vec::new(),
        publish_ms: Vec::new(),
        warm_ms: Vec::new(),
    };
    let (client, (served, server_tracer)) = std::thread::scope(|s| {
        let (state, clock, publisher) = (&state, &clock, &mut publisher);
        let server = s.spawn(move || {
            let mut tracer = Tracer::new(traced, clock.origin());
            let mut hook = |report: &DrainReport, _: &[Completion], t: &mut Tracer| {
                publisher.after_drain(report, t);
            };
            let served = server::serve(&state.service, &rx, clock, policy, &mut tracer, &mut hook);
            (served, tracer)
        });
        let client = client_loop(state, clock, tx, &mut ctx.tracer);
        (client, server.join().expect("server thread panicked"))
    });
    let io = vfs.totals().since(&io_before);

    let mut append_class = client.append_sent;
    let mut append_ms = Vec::new();
    for c in &served.completions {
        if let Note::Append { due_ns, .. } = c.note {
            let ms = c.done_ns.saturating_sub(due_ns) as f64 * 1e-6;
            append_ms.push(ms);
            if c.ok {
                append_class.ok += 1;
                append_class.within_limit += u64::from(ms <= APPEND_LIMIT_MS);
            } else {
                append_class.failed += 1;
            }
        }
    }
    for e in &publisher.errors {
        out.fail(e.clone());
    }
    if publisher.mismatches > 0 {
        out.fail(format!(
            "{} warm-started predictions differ from the live service",
            publisher.mismatches
        ));
    }
    if publisher.publishes == 0 {
        out.fail("the run published nothing");
    }
    match publisher.store.check() {
        Ok(check) if check.is_clean() => {}
        Ok(check) => out.fail(format!("store is not fsck-clean: {:?}", check.issues)),
        Err(e) => out.fail(format!("fsck failed: {e}")),
    }
    let c = state.service.counters();
    if c.shed_appends > 0 {
        out.fail(format!("{} appends shed", c.shed_appends));
    }

    let wall_s = served.wall_ns.max(1) as f64 * 1e-9;
    out.classes = vec![("append", append_class), ("predict", client.predict_class)];
    let completed: u64 = out.classes.iter().map(|(_, c)| c.ok).sum();
    let appends = Summary::of(&mut append_ms);
    let mut predict_us = client.predict_us;
    let (predict_tail, predict_tail_p) = crate::stats::chunked_tail(&predict_us);
    let predicts = Summary::of(&mut predict_us);
    let mut lag_us: Vec<f64> = client.lateness_ns.iter().map(|ns| ns * 1e-3).collect();
    let lag = Summary::of(&mut lag_us);
    out.e2e("setup_s", "s", ctx.setup_s());
    out.e2e("throughput_per_s", "1/s", completed as f64 / wall_s);
    out.e2e("latency_p50_ms", "ms", appends.p50);
    out.detail("predict_p50_us", "us", predicts.p50);
    out.detail("predict_tail_us", "us", predict_tail);
    out.detail("predict_tail_percentile", "%", predict_tail_p);
    out.detail("predict_samples", "count", predicts.n as f64);
    out.e2e("slo_ratio", "ratio", out.slo_ratio());
    out.detail("served_rps", "1/s", completed as f64 / wall_s);
    out.detail("append_p50_us", "us", appends.p50 * 1e3);
    out.detail("append_tail_us", "us", appends.tail * 1e3);
    out.detail("append_tail_percentile", "%", appends.tail_p);
    out.detail(
        "publish_p50_ms",
        "ms",
        crate::stats::median(&publisher.publish_ms),
    );
    out.detail(
        "warm_start_ms",
        "ms",
        crate::stats::median(&publisher.warm_ms),
    );
    out.detail("publishes", "count", publisher.publishes as f64);
    out.detail("gen_lag_tail_us", "us", lag.tail);
    out.detail(
        "failed_ratio",
        "ratio",
        out.failed() as f64 / out.attempted().max(1) as f64,
    );
    out.detail(
        "drain_busy_ratio",
        "ratio",
        (served.drain_ns + served.hook_ns) as f64 / served.wall_ns.max(1) as f64,
    );

    if traced && out.failures.is_empty() {
        let l = &mut ctx.layers;
        l.push(
            "service.busy_ratio",
            (served.drain_ns + served.hook_ns) as f64 / served.wall_ns.max(1) as f64,
        );
        l.push(
            "service.coalesce_mean",
            append_class.sent as f64 / served.drains.max(1) as f64,
        );
        l.push(
            "service.shed_ratio",
            c.shed_appends as f64 / append_class.sent.max(1) as f64,
        );
        layers::record_vfs(l, &io, publisher.puts);
        ctx.tracer.absorb(server_tracer);
        let (points, jobs) = probe_jobs(&state.inputs);
        let opts = FitOptions::new()
            .folds(4)
            .grid(log_grid(1e-3, 1e3, 9))
            .threads(1);
        let shape = Shape {
            basis: &state.inputs.basis,
            points: &points,
            jobs: &jobs,
            options: &opts,
            probes: &state.inputs.probes,
        };
        ctx.probe(&shape, &mut out);
    }
    drop(publisher);
    if let Err(e) = remove_store(&store_dir) {
        out.fail(e);
    }
    out
}

fn remove_store(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("remove store {}: {e}", dir.display()))
}

/// A batch-shaped view of the streams for the layer probe: the first
/// stream's first `STREAM_LEN` arrival points, with four streams'
/// responses at them.
fn probe_jobs(inputs: &Inputs) -> (Vec<Vec<f64>>, Vec<BatchJob>) {
    let points: Vec<Vec<f64>> = inputs
        .arrivals
        .iter()
        .filter(|a| a.stream == 0)
        .take(STREAM_LEN)
        .map(|a| a.point.clone())
        .collect();
    let jobs = (0..4)
        .map(|j| {
            let values = points
                .iter()
                .map(|p| {
                    inputs.metrics[j]
                        .evaluate(Stage::PostLayout, p)
                        .unwrap_or(0.0)
                })
                .collect();
            BatchJob::new(stream_id(j, 0), inputs.priors[j].clone(), values)
        })
        .collect();
    (points, jobs)
}

struct Client {
    append_sent: ClassCount,
    predict_class: ClassCount,
    predict_us: Vec<f64>,
    lateness_ns: Vec<f64>,
}

fn client_loop(
    state: &State,
    clock: &WallClock,
    tx: mpsc::Sender<Note>,
    tracer: &mut Tracer,
) -> Client {
    let inputs = &state.inputs;
    let service = &state.service;
    let mut generation = vec![0usize; STREAMS];
    let mut count = vec![0usize; STREAMS];
    let mut ids: Vec<String> = (0..STREAMS).map(|j| stream_id(j, 0)).collect();
    let mut sender = OpenLoop::new(clock, inputs.arrivals.len() + inputs.predicts.len());
    let mut out = Client {
        append_sent: ClassCount::default(),
        predict_class: ClassCount::default(),
        predict_us: crate::clock::touched(inputs.predicts.len()),
        lateness_ns: Vec::new(),
    };
    let (mut a, mut p) = (0usize, 0usize);
    while a < inputs.arrivals.len() || p < inputs.predicts.len() {
        let append_next = match (inputs.arrivals.get(a), inputs.predicts.get(p)) {
            (Some(x), Some(y)) => x.at_ns <= y.at_ns,
            (Some(_), None) => true,
            _ => false,
        };
        if append_next {
            let arrival = &inputs.arrivals[a];
            a += 1;
            let j = arrival.stream;
            let sent_ns = sender.send_at(arrival.at_ns);
            out.append_sent.sent += 1;
            let submitted = tracer.span("service.submit", |_| {
                service.append_sample(&ids[j], &arrival.point, arrival.value)
            });
            match submitted {
                Ok(ticket) => {
                    let note = Note::Append {
                        ticket,
                        due_ns: arrival.at_ns,
                        sent_ns,
                    };
                    if tx.send(note).is_err() {
                        out.append_sent.failed += 1;
                    }
                }
                Err(_) => out.append_sent.failed += 1,
            }
            count[j] += 1;
            if count[j] == STREAM_LEN {
                // The full stream is evicted once its last sample is
                // applied; reads move to the next generation now.
                generation[j] += 1;
                count[j] = 0;
                ids[j] = stream_id(j, generation[j]);
                let registered = tracer.span("service.register_stream", |_| {
                    service.register_stream(
                        ids[j].clone(),
                        inputs.basis.clone(),
                        &inputs.prior(j),
                        HYPER,
                    )
                });
                if registered.is_err() {
                    out.append_sent.failed += 1;
                }
            }
        } else {
            let due = inputs.predicts[p];
            let j = usize::from(due.job) % STREAMS;
            sender.send_at(due.at_ns);
            debug_assert_eq!(due.kind, RequestKind::Predict);
            let x = &inputs.probes[p % PROBES];
            p += 1;
            let result = tracer.span("service.predict_call", |_| service.predict(&ids[j], x));
            let us = sender.since_due(due.at_ns) as f64 * 1e-3;
            out.predict_us.push(us);
            let c = &mut out.predict_class;
            c.sent += 1;
            if result.is_ok() {
                c.ok += 1;
                c.within_limit += u64::from(us <= PREDICT_LIMIT_US);
            } else {
                c.failed += 1;
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
