//! Per-layer measurements for the traced run.
//!
//! Every traced run reports the same per-layer metrics. A workload
//! records spans around the layer calls it makes itself; [`probe`] then
//! replays one of the workload's own jobs through every layer the
//! workload did not exercise, at the workload's own shapes, so each
//! layer is timed at the scale that workload runs it.
//!
//! The replay of a fit follows `BmfFitter::fit` step by step with the
//! benchmark's own fold split (`KFold` at `FoldPlan`'s sizes):
//! `design_matrix` → per fold `MapSweep::from_view` → per cell
//! `solve_with_kind` and a validation `matvec_into` → `map_estimate`.
//! `trace.coverage` is the share of an untraced `BmfFitter::fit` of the
//! same job that the self times of those layer spans account for.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bmf_basis::basis::OrthonormalBasis;
use bmf_bench::alloc;
use bmf_core::batch::{BatchFitter, BatchJob};
use bmf_core::fusion::{response_scale, BmfFit, BmfFitter};
use bmf_core::map_estimate::{map_estimate, MapSweep};
use bmf_core::options::FitOptions;
use bmf_core::prior::{Prior, PriorKind};
use bmf_core::select::PriorSelection;
use bmf_core::sequential::SequentialBmf;
use bmf_core::service::{FitRequest, FitService, ServiceConfig};
use bmf_core::snapshot::ModelSnapshot;
use bmf_core::workspace::SeqWorkspace;
use bmf_linalg::view::{matvec_into, matvec_transpose_into, outer_gram_diag_into};
use bmf_linalg::{cholesky_in_place, Matrix, Vector};
use bmf_persist::artifact::{decode_snapshot, encode_snapshot};
use bmf_persist::store::ArtifactStore;
use bmf_stat::crossval::KFold;

use crate::iovfs::{IoOp, IoTotals, TimingVfs};
use crate::outcome::Metric;
use crate::trace::Tracer;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("basis.design_ms", "ms"),
    ("basis.fill_row_us", "us"),
    ("linalg.outer_gram_ms", "ms"),
    ("linalg.outer_gram_gflops", "GFLOP/s"),
    ("linalg.outer_gram_flop_per_byte", "flop/B"),
    ("linalg.core_factor_us", "us"),
    ("linalg.core_factor_gflops", "GFLOP/s"),
    ("linalg.matvec_us", "us"),
    ("linalg.matvec_gflops", "GFLOP/s"),
    ("map.kernel_build_ms", "ms"),
    ("map.kernel_builds", "count"),
    ("map.cell_solve_us", "us"),
    ("map.cell_solves", "count"),
    ("map.final_solve_ms", "ms"),
    ("cv.both_ms", "ms"),
    ("cv.degraded_ratio", "ratio"),
    ("batch.fit_ms", "ms"),
    ("batch.prepare_ms", "ms"),
    ("batch.kernels_ms", "ms"),
    ("batch.sweep_ms", "ms"),
    ("batch.solve_ms", "ms"),
    ("batch.kernel_hit_ratio", "ratio"),
    ("batch.pool_efficiency", "ratio"),
    ("service.submit_us", "us"),
    ("service.queue_wait_ms", "ms"),
    ("service.drain_ms", "ms"),
    ("service.busy_ratio", "ratio"),
    ("service.coalesce_mean", "count"),
    ("service.predict_call_us", "us"),
    ("service.shed_ratio", "ratio"),
    ("seq.add_sample_us", "us"),
    ("seq.snapshot_us", "us"),
    ("persist.export_ms", "ms"),
    ("persist.put_ms", "ms"),
    ("persist.compact_ms", "ms"),
    ("persist.warm_start_ms", "ms"),
    ("persist.encode_us", "us"),
    ("persist.decode_us", "us"),
    ("persist.vfs.sync_ms", "ms"),
    ("persist.vfs.ops_per_put", "count"),
    ("persist.vfs.bytes_per_put", "B"),
    ("setup.mc_ms", "ms"),
    ("setup.omp_ms", "ms"),
    ("alloc.per_fit", "count"),
    ("alloc.per_append", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Span names whose self times become per-layer metrics, with the
/// metric and the factor from nanoseconds to its unit.
const SPAN_METRICS: [(&str, &str, f64); 21] = [
    ("basis.design", "basis.design_ms", 1e-6),
    ("basis.fill_row", "basis.fill_row_us", 1e-3),
    ("linalg.outer_gram", "linalg.outer_gram_ms", 1e-6),
    ("linalg.core_factor", "linalg.core_factor_us", 1e-3),
    ("linalg.matvec", "linalg.matvec_us", 1e-3),
    ("map.kernel_build", "map.kernel_build_ms", 1e-6),
    ("map.cell_solve", "map.cell_solve_us", 1e-3),
    ("map.final_solve", "map.final_solve_ms", 1e-6),
    ("cv.both", "cv.both_ms", 1e-6),
    ("service.submit", "service.submit_us", 1e-3),
    ("service.queue_wait", "service.queue_wait_ms", 1e-6),
    ("service.drain", "service.drain_ms", 1e-6),
    ("service.predict_call", "service.predict_call_us", 1e-3),
    ("seq.add_sample", "seq.add_sample_us", 1e-3),
    ("seq.snapshot", "seq.snapshot_us", 1e-3),
    ("persist.export", "persist.export_ms", 1e-6),
    ("persist.put", "persist.put_ms", 1e-6),
    ("persist.compact", "persist.compact_ms", 1e-6),
    ("persist.warm_start", "persist.warm_start_ms", 1e-6),
    ("persist.encode", "persist.encode_us", 1e-3),
    ("persist.decode", "persist.decode_us", 1e-3),
];

/// Spans of the fit replay whose self times count toward
/// `trace.coverage`.
const COVERAGE_SPANS: [&str; 5] = [
    "basis.design",
    "map.kernel_build",
    "map.cell_solve",
    "cv.validate",
    "map.final_solve",
];

/// Per-layer samples, by metric name, already in the metric's unit.
#[derive(Debug, Default)]
pub struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Whether any sample of `name` was taken.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| crate::stats::median(v))
    }

    /// Adds the self times of every span that maps to a metric.
    pub fn absorb_spans(&mut self, tracer: &Tracer) {
        let by_name = tracer.self_times_by_name();
        for (span, metric, scale) in SPAN_METRICS {
            if let Some(times) = by_name.get(span) {
                for t in times {
                    self.push(metric, t * scale);
                }
            }
        }
    }

    /// The per-layer metrics in `BENCHMARK.json` order; names without
    /// samples are returned as missing.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<&'static str>) {
        let mut out = Vec::new();
        let mut missing = Vec::new();
        for (name, unit) in PER_LAYER {
            match self.median(name).filter(|v| v.is_finite()) {
                Some(value) => out.push(Metric {
                    name: name.to_string(),
                    unit,
                    value,
                }),
                None => missing.push(name),
            }
        }
        (out, missing)
    }
}

/// One workload's fitting shape: shared points, the jobs fitted over
/// them, and the options they are fitted with.
#[derive(Debug)]
pub struct Shape<'a> {
    /// Late-stage basis.
    pub basis: &'a OrthonormalBasis,
    /// Shared sample points.
    pub points: &'a [Vec<f64>],
    /// Jobs over the points; the first is the one replayed.
    pub jobs: &'a [BatchJob],
    /// Fit configuration.
    pub options: &'a FitOptions,
    /// Points used for predictions.
    pub probes: &'a [Vec<f64>],
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How many repetitions of a step taking `one` fit in `budget_s`.
fn reps_for(one_s: f64, budget_s: f64, max: usize) -> usize {
    ((budget_s / one_s.max(1e-9)) as usize).clamp(1, max)
}

/// Replays one job through the basis, kernel, MAP, CV, sequential and
/// codec layers, and through the batch, store-publication and service
/// layers where `samples` has no figures from the workload yet. Returns
/// correctness failures.
pub fn probe(
    shape: &Shape<'_>,
    tracer: &mut Tracer,
    samples: &mut LayerSamples,
    scratch: &Path,
) -> Vec<String> {
    let mut failures = Vec::new();
    let fitter = |job: &BatchJob| {
        BmfFitter::new(shape.basis.clone(), job.prior.clone())
            .map(|f| f.with_options(shape.options.clone()))
    };

    // Untraced reference fits: one per job (pool efficiency), and the
    // replayed job repeated for a steady median.
    let mut refs: Vec<BmfFit> = Vec::new();
    let mut serial_ms = 0.0;
    for job in shape.jobs {
        let t = Instant::now();
        let (fit, allocs) =
            alloc::measure(|| fitter(job).and_then(|f| f.fit(shape.points, &job.values)));
        serial_ms += ms(t.elapsed());
        samples.push("alloc.per_fit", allocs.count as f64);
        match fit {
            Ok(f) => refs.push(f),
            Err(e) => {
                failures.push(format!("probe fit of {} failed: {e}", job.label));
                return failures;
            }
        }
    }
    samples.push("probe.serial_ms", serial_ms);
    let job = &shape.jobs[0];
    let reference = &refs[0];
    let c = &reference.counters;
    samples.push(
        "cv.degraded_ratio",
        c.degraded_solves as f64 / c.map_solves.max(1) as f64,
    );
    let first_ms = serial_ms / shape.jobs.len() as f64;
    let reps = reps_for(first_ms * 1e-3, 4.0, 50).max(3);
    // Untraced fit and traced replay of the same job, alternated so each
    // ratio compares two runs taken moments apart on the same machine.
    for _ in 0..reps {
        let t = Instant::now();
        let fit = fitter(job).and_then(|f| f.fit(shape.points, &job.values));
        let untraced_ms = ms(t.elapsed());
        std::hint::black_box(fit.ok());
        let before = tracer.spans().len();
        let replay = tracer.span("fit.replay", |t| replay_fit(shape, job, reference, t));
        match replay {
            Ok(coeffs) => {
                let same = coeffs.len() == reference.model.coeffs().len()
                    && coeffs
                        .iter()
                        .zip(reference.model.coeffs())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    failures.push("fit replay differs from BmfFitter::fit".to_string());
                    return failures;
                }
            }
            Err(e) => {
                failures.push(format!("fit replay failed: {e}"));
                return failures;
            }
        }
        let selfs = tracer.self_times_ns();
        let spans = &tracer.spans()[before..];
        let covered: u64 = spans
            .iter()
            .zip(&selfs[before..])
            .filter(|(s, _)| COVERAGE_SPANS.contains(&s.name))
            .map(|(_, t)| *t)
            .sum();
        samples.push("trace.coverage", covered as f64 * 1e-6 / untraced_ms);
        samples.push(
            "trace.overhead",
            spans[0].duration_ns() as f64 * 1e-6 / untraced_ms,
        );
        samples.push(
            "map.kernel_builds",
            spans
                .iter()
                .filter(|s| s.name == "map.kernel_build")
                .count() as f64,
        );
        samples.push(
            "map.cell_solves",
            spans.iter().filter(|s| s.name == "map.cell_solve").count() as f64,
        );
    }

    kernels(shape, job, tracer, samples);
    cv_both(shape, job, reps, tracer);
    if !samples.has("batch.fit_ms") {
        if let Err(e) = batch(shape, samples) {
            failures.push(e);
        }
    }
    sequential(shape, job, tracer, samples);
    if let Err(e) = persist(shape, &refs, tracer, samples, scratch) {
        failures.push(e);
    }
    if !samples.has("service.drain_ms") {
        if let Err(e) = service(shape, tracer, samples) {
            failures.push(e);
        }
    }
    failures
}

/// `BmfFitter::fit` of `job`, step by step through the public layer
/// calls, with the prior family and hyper-parameter the reference fit
/// selected. Returns the final coefficients in response units.
fn replay_fit(
    shape: &Shape<'_>,
    job: &BatchJob,
    reference: &BmfFit,
    t: &mut Tracer,
) -> bmf_core::Result<Vec<f64>> {
    let opts = shape.options;
    let g = t.span("basis.design", |_| {
        shape
            .basis
            .design_matrix(shape.points.iter().map(|p| p.as_slice()))
    });
    let scale = response_scale(&job.values);
    let f = Vector::from_fn(job.values.len(), |i| job.values[i] / scale);
    let prior = Prior::new(
        PriorKind::ZeroMean,
        job.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    let nzm = prior.with_kind(PriorKind::NonZeroMean);
    let kinds = match opts.selection {
        PriorSelection::Fixed(kind) => vec![kind],
        PriorSelection::Auto => vec![PriorKind::ZeroMean, PriorKind::NonZeroMean],
    };
    let kfold = KFold::new(g.nrows(), opts.folds, opts.seed).map_err(|_| {
        bmf_core::BmfError::NotEnoughSamples {
            available: g.nrows(),
            required: opts.folds,
            context: "replay fold split",
        }
    })?;
    let mut pred = Vec::new();
    for fold in kfold.iter() {
        let sweep = match t.span("map.kernel_build", |_| {
            MapSweep::from_view(g.rows_view(&fold.train), &nzm)
        }) {
            Ok(s) => s,
            Err(bmf_core::BmfError::NotEnoughSamples { .. }) => continue,
            Err(e) => return Err(e),
        };
        let f_train: Vector = fold.train.iter().map(|&i| f[i]).collect();
        pred.resize(fold.validate.len(), 0.0);
        for &h in &opts.grid {
            for &kind in &kinds {
                let alpha = match t.span("map.cell_solve", |_| {
                    sweep.solve_with_kind(&f_train, h, kind)
                }) {
                    Ok(a) => a,
                    Err(bmf_core::BmfError::Linalg(_)) => continue,
                    Err(e) => return Err(e),
                };
                t.span("cv.validate", |_| {
                    matvec_into(g.rows_view(&fold.validate), alpha.as_slice(), &mut pred)
                })?;
                std::hint::black_box(&pred);
            }
        }
    }
    let chosen = prior.with_kind(reference.prior_kind);
    let solve_opts = FitOptions::new().hyper(reference.hyper).solver(opts.solver);
    let alpha = t.span("map.final_solve", |_| {
        map_estimate(&g, &f, &chosen, &solve_opts)
    })?;
    Ok(alpha.iter().map(|a| a * scale).collect())
}

/// `bmf-linalg` kernels at the replayed job's fold-training shape, with
/// work computed from the shapes.
fn kernels(shape: &Shape<'_>, job: &BatchJob, t: &mut Tracer, samples: &mut LayerSamples) {
    let g = shape
        .basis
        .design_matrix(shape.points.iter().map(|p| p.as_slice()));
    let Ok(kfold) = KFold::new(g.nrows(), shape.options.folds, shape.options.seed) else {
        return;
    };
    let fold = kfold.fold(0);
    let train = g.rows_view(&fold.train);
    let (k, m) = train.shape();
    let diag: Vec<f64> = job.prior.iter().map(|p| p.map_or(0.0, |a| a * a)).collect();
    let mut out = Matrix::zeros(k, k);
    // Computed work: one k(k+1)/2-entry triangle of three-flop terms
    // over m columns; compulsory traffic reads the k×m operand and the
    // diagonal once and writes the k×k result.
    let flops = 3.0 * m as f64 * (k * (k + 1) / 2) as f64;
    let bytes = 8.0 * (k * m + m + k * k) as f64;
    let x = vec![1.0; m];
    let y = vec![1.0; g.nrows()];
    let mut ym = vec![0.0; g.nrows()];
    let mut xm = vec![0.0; m];
    let reps = 20;
    for _ in 0..reps {
        let t0 = Instant::now();
        t.span("linalg.outer_gram", |_| {
            outer_gram_diag_into(train, &diag, out.as_view_mut())
        })
        .ok();
        let s = t0.elapsed().as_secs_f64();
        samples.push("linalg.outer_gram_gflops", flops / s.max(1e-12) * 1e-9);
        samples.push("linalg.outer_gram_flop_per_byte", flops / bytes);
        // The Woodbury core I + B/h at the fold size, factored in place.
        let mut core = out.clone();
        let scale = (0..k).map(|i| core[(i, i)]).fold(0.0f64, f64::max).max(1.0);
        for i in 0..k {
            for j in 0..k {
                core[(i, j)] /= scale;
            }
            core[(i, i)] += 1.0;
        }
        // Computed work: k³/3 flops for the factor, 2·K·M per matvec.
        let t0 = Instant::now();
        t.span("linalg.core_factor", |_| cholesky_in_place(&mut core))
            .ok();
        let factor_flops = (k * k * k) as f64 / 3.0;
        samples.push(
            "linalg.core_factor_gflops",
            factor_flops / t0.elapsed().as_secs_f64().max(1e-12) * 1e-9,
        );
        let t0 = Instant::now();
        t.span("linalg.matvec", |_| matvec_into(g.as_view(), &x, &mut ym))
            .ok();
        t.span("linalg.matvec", |_| {
            matvec_transpose_into(g.as_view(), &y, &mut xm)
        })
        .ok();
        let matvec_flops = 4.0 * (g.nrows() * g.ncols()) as f64;
        samples.push(
            "linalg.matvec_gflops",
            matvec_flops / t0.elapsed().as_secs_f64().max(1e-12) * 1e-9,
        );
        std::hint::black_box((&ym, &xm, &core));
    }
}

/// `cross_validate_both` over the job's full data.
fn cv_both(shape: &Shape<'_>, job: &BatchJob, reps: usize, t: &mut Tracer) {
    let g = shape
        .basis
        .design_matrix(shape.points.iter().map(|p| p.as_slice()));
    let scale = response_scale(&job.values);
    let f = Vector::from_fn(job.values.len(), |i| job.values[i] / scale);
    let prior = Prior::new(
        PriorKind::ZeroMean,
        job.prior.iter().map(|v| v.map(|a| a / scale)).collect(),
    );
    let cfg = shape.options.cv_config();
    for _ in 0..reps {
        let out = t.span("cv.both", |_| {
            bmf_core::hyper::cross_validate_both(&g, &f, &prior, &cfg)
        });
        std::hint::black_box(out.ok());
    }
}

/// Records one batch report's phase timings and cache ratio.
pub fn record_batch(
    samples: &mut LayerSamples,
    report: &bmf_core::batch::BatchReport,
    wall_ms: f64,
) {
    let t = &report.timings;
    samples.push("batch.fit_ms", wall_ms);
    samples.push("batch.prepare_ms", ms(t.prepare));
    samples.push("batch.kernels_ms", ms(t.kernels));
    samples.push("batch.sweep_ms", ms(t.sweep));
    samples.push("batch.solve_ms", ms(t.solve));
    let c = &report.counters;
    let lookups = c.kernel_cache_hits + c.kernel_cache_misses;
    samples.push(
        "batch.kernel_hit_ratio",
        c.kernel_cache_hits as f64 / lookups.max(1) as f64,
    );
    samples.push("batch.threads", report.threads as f64);
}

/// The shape's jobs through one `BatchFitter`, a few times.
fn batch(shape: &Shape<'_>, samples: &mut LayerSamples) -> Result<(), String> {
    let fitter = BatchFitter::new(shape.basis.clone())
        .with_options(shape.options.clone())
        .with_jobs(shape.jobs.to_vec());
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = fitter
            .fit(shape.points)
            .map_err(|e| format!("probe batch fit failed: {e}"))?;
        record_batch(samples, &report, ms(t0.elapsed()));
    }
    Ok(())
}

/// A `SequentialBmf` fed the replayed job's samples one at a time.
fn sequential(shape: &Shape<'_>, job: &BatchJob, t: &mut Tracer, samples: &mut LayerSamples) {
    // The streaming estimator needs a prior on every coefficient; a
    // missing one gets the largest known magnitude.
    let known = job
        .prior
        .iter()
        .flatten()
        .fold(0.0f64, |m, a| m.max(a.abs()))
        .max(1.0);
    let early: Vec<f64> = job.prior.iter().map(|p| p.unwrap_or(known)).collect();
    let prior = Prior::from_coeffs(PriorKind::NonZeroMean, &early);
    let Ok(mut seq) = SequentialBmf::new(&prior, 1.0) else {
        return;
    };
    let mut ws = SeqWorkspace::new();
    let mut row = vec![0.0; shape.basis.len()];
    let n = shape.points.len();
    let (_, allocs) = alloc::measure(|| {
        for (x, &v) in shape.points.iter().zip(&job.values) {
            t.span("basis.fill_row", |_| shape.basis.fill_row(x, &mut row));
            if t.span("seq.add_sample", |_| seq.add_sample(&row, v, &mut ws))
                .is_err()
            {
                return;
            }
            let snap = t.span("seq.snapshot", |_| {
                seq.snapshot(&job.label, shape.basis, &mut ws)
            });
            std::hint::black_box(snap.ok());
        }
    });
    samples.push("alloc.per_append", allocs.count as f64 / n.max(1) as f64);
}

/// Store figures from a timing VFS over `puts` artifact publications.
pub fn record_vfs(samples: &mut LayerSamples, io: &IoTotals, puts: usize) {
    let syncs = io.of(IoOp::SyncFile).ops + io.of(IoOp::SyncDir).ops;
    let sync_ns = io.of(IoOp::SyncFile).ns + io.of(IoOp::SyncDir).ns;
    samples.push(
        "persist.vfs.sync_ms",
        sync_ns as f64 * 1e-6 / syncs.max(1) as f64,
    );
    samples.push(
        "persist.vfs.ops_per_put",
        io.ops() as f64 / puts.max(1) as f64,
    );
    samples.push(
        "persist.vfs.bytes_per_put",
        io.bytes() as f64 / puts.max(1) as f64,
    );
}

/// Codec round trips always; store publication, compaction and warm
/// start when the workload did not exercise them.
fn persist(
    shape: &Shape<'_>,
    fits: &[BmfFit],
    t: &mut Tracer,
    samples: &mut LayerSamples,
    scratch: &Path,
) -> Result<(), String> {
    let snaps: Vec<ModelSnapshot> = shape
        .jobs
        .iter()
        .zip(fits)
        .map(|(j, f)| ModelSnapshot::from_fit(j.label.clone(), f, shape.options))
        .collect();
    for _ in 0..10 {
        for s in &snaps {
            let bytes = t
                .span("persist.encode", |_| encode_snapshot(s))
                .map_err(|e| format!("encode failed: {e}"))?;
            let back = t
                .span("persist.decode", |_| decode_snapshot(&bytes))
                .map_err(|e| format!("decode failed: {e}"))?;
            if &back != s {
                return Err("snapshot codec round trip changed the snapshot".to_string());
            }
        }
    }
    // Single puts always (a workload publishes through export_service);
    // the publish cycle only where the workload did not run one.
    let cycles = if samples.has("persist.export_ms") {
        0
    } else {
        5
    };
    let dir = scratch.join("probe-store");
    let vfs = Arc::new(TimingVfs::new());
    let store =
        ArtifactStore::open_with(&dir, vfs.clone()).map_err(|e| format!("open store: {e}"))?;
    let before = vfs.totals();
    for s in &snaps {
        t.span("persist.put", |_| store.put(s))
            .map_err(|e| format!("put failed: {e}"))?;
    }
    let service = FitService::new(ServiceConfig {
        options: shape.options.clone(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service: {e}"))?;
    for s in &snaps {
        service
            .import_snapshot(s.clone())
            .map_err(|e| format!("import failed: {e}"))?;
    }
    for _ in 0..cycles {
        t.span("persist.export", |_| store.export_service(&service))
            .map_err(|e| format!("export failed: {e}"))?;
        t.span("persist.compact", |_| store.compact())
            .map_err(|e| format!("compact failed: {e}"))?;
        let fresh =
            FitService::new(service.config().clone()).map_err(|e| format!("service: {e}"))?;
        t.span("persist.warm_start", |_| store.warm_start(&fresh))
            .map_err(|e| format!("warm start failed: {e}"))?;
    }
    if !samples.has("persist.vfs.sync_ms") {
        let io = vfs.totals().since(&before);
        record_vfs(samples, &io, snaps.len() * (cycles + 1));
    }
    let clean = store.check().map_err(|e| format!("fsck: {e}"))?.is_clean();
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove probe store: {e}"))?;
    if clean {
        Ok(())
    } else {
        Err("probe store is not fsck-clean".to_string())
    }
}

/// The shape's jobs submitted to a `FitService`, drained once, and the
/// fitted models queried.
fn service(shape: &Shape<'_>, t: &mut Tracer, samples: &mut LayerSamples) -> Result<(), String> {
    let start = Instant::now();
    let service = FitService::new(ServiceConfig {
        options: shape.options.clone(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service: {e}"))?;
    let points = service
        .register_points(shape.points.to_vec())
        .map_err(|e| format!("register points: {e}"))?;
    let mut submitted = Vec::new();
    for job in shape.jobs {
        let request = FitRequest {
            job_id: job.label.clone(),
            basis: shape.basis.clone(),
            points,
            prior: job.prior.clone(),
            values: job.values.clone(),
        };
        t.span("service.submit", |_| service.submit_fit(request))
            .map_err(|e| format!("submit failed: {e}"))?;
        submitted.push(Instant::now());
    }
    let drain_start = Instant::now();
    let report = t.span("service.drain", |_| service.drain());
    for at in submitted {
        t.record("service.queue_wait", at, drain_start);
    }
    if report.served() != shape.jobs.len() {
        return Err("probe drain did not serve every job".to_string());
    }
    for _ in 0..20 {
        for (job, x) in shape.jobs.iter().zip(shape.probes.iter().cycle()) {
            let y = t.span("service.predict_call", |_| service.predict(&job.label, x));
            std::hint::black_box(y.ok());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let drain_s = t
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "service.drain")
        .map_or(0.0, |s| s.duration_ns() as f64 * 1e-9);
    samples.push("service.busy_ratio", drain_s / wall.max(1e-9));
    samples.push(
        "service.coalesce_mean",
        shape.jobs.len() as f64 / report.batches.len().max(1) as f64,
    );
    let c = service.counters();
    samples.push(
        "service.shed_ratio",
        c.shed_fits as f64 / shape.jobs.len().max(1) as f64,
    );
    Ok(())
}

/// Pool efficiency from the serial reference fits and the batch
/// median: Σ serial fit time / (threads × batch fit time).
pub fn finish(samples: &mut LayerSamples) {
    if let (Some(serial), Some(batch), Some(threads)) = (
        samples.median("probe.serial_ms"),
        samples.median("batch.fit_ms"),
        samples.median("batch.threads"),
    ) {
        samples.push(
            "batch.pool_efficiency",
            serial / (threads * batch).max(1e-9),
        );
    }
}
