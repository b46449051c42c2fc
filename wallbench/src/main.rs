//! Wall-clock benchmark of the BMF fitting stack.
//!
//! ```text
//! wallbench --workload <fit_wide|serve_mix|stream_persist> --seed <n>
//!           --seconds <s> --trace <0|1> [--scratch <dir>] [--results <dir>]
//! ```
//!
//! Runs one workload against the real public API of the repository's
//! crates, checks its outputs, and prints as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`). Earlier lines give the run metadata and the
//! workload-specific figures; the full report (and, traced, every span)
//! is also written under `--results`. `run.py` builds and launches this
//! binary; see the README beside it.

mod clock;
mod fit_wide;
mod inputs;
mod iovfs;
mod layers;
mod meta;
mod outcome;
mod serve_mix;
mod server;
mod stats;
mod stream_persist;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use crate::inputs::SetupTimes;
use crate::layers::{LayerSamples, Shape};
use crate::outcome::{json_str, metrics_json, result_line, Outcome};
use crate::trace::Tracer;

/// Set-up repeats at least this often and for at least
/// [`SETUP_MIN_S`] (at most [`SETUP_MAX_REPS`] times); `setup_s` is the
/// median, steady even where one set-up takes milliseconds.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    trace: bool,
    scratch: PathBuf,
    results: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from("wallbench/scratch"),
        results: PathBuf::from("wallbench/results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--scratch" => args.scratch = PathBuf::from(value),
            "--results" => args.results = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["fit_wide", "serve_mix", "stream_persist"].contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (fit_wide|serve_mix|stream_persist)",
            args.workload
        ));
    }
    Ok(args)
}

/// State shared by a workload run: the main thread's tracer, per-layer
/// samples, set-up timings and the scratch directory.
pub struct RunContext {
    /// Main-thread span recorder (disabled when untraced).
    pub tracer: Tracer,
    /// Per-layer samples.
    pub layers: LayerSamples,
    /// This run's private scratch directory.
    pub scratch: PathBuf,
    setup_s: Vec<f64>,
    probe_tracer: Option<Tracer>,
}

impl RunContext {
    /// Runs and times `setup` repeatedly (see [`SETUP_MIN_REPS`]) and
    /// returns the last result. The inputs are a function of the seed,
    /// so every repetition builds the same state.
    pub fn timed_setup<T>(
        &mut self,
        mut setup: impl FnMut(&mut SetupTimes) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        let start = Instant::now();
        while self.setup_s.len() < SETUP_MIN_REPS
            || (start.elapsed().as_secs_f64() < SETUP_MIN_S && self.setup_s.len() < SETUP_MAX_REPS)
        {
            drop(last.take());
            let mut times = SetupTimes::default();
            let t = Instant::now();
            let state = setup(&mut times)?;
            self.setup_s.push(t.elapsed().as_secs_f64());
            self.layers.push("setup.mc_ms", times.mc_ns as f64 * 1e-6);
            self.layers.push("setup.omp_ms", times.omp_ns as f64 * 1e-6);
            last = Some(state);
        }
        last.ok_or_else(|| "set-up never ran".to_string())
    }

    /// Median set-up time, seconds.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    /// Traced runs: folds the workload's spans into the per-layer
    /// samples, probes the layers the workload did not exercise at its
    /// shape, and fills `out.per_layer`.
    pub fn probe(&mut self, shape: &Shape<'_>, out: &mut Outcome) {
        self.layers.absorb_spans(&self.tracer);
        let mut probe_tracer = Tracer::new(true, Instant::now());
        let failures = layers::probe(shape, &mut probe_tracer, &mut self.layers, &self.scratch);
        out.failures.extend(failures);
        self.layers.absorb_spans(&probe_tracer);
        layers::finish(&mut self.layers);
        let (metrics, missing) = self.layers.metrics();
        if !missing.is_empty() {
            out.fail(format!("per-layer metrics missing: {}", missing.join(", ")));
        }
        out.per_layer = metrics;
        self.probe_tracer = Some(probe_tracer);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = args.scratch.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!(
            "wallbench: cannot create scratch {}: {e}",
            scratch.display()
        );
        std::process::exit(2);
    }
    let mut ctx = RunContext {
        tracer: Tracer::new(args.trace, Instant::now()),
        layers: LayerSamples::default(),
        scratch: scratch.clone(),
        setup_s: Vec::new(),
        probe_tracer: None,
    };
    let mut out = match args.workload.as_str() {
        "fit_wide" => fit_wide::run(&args, &mut ctx),
        "serve_mix" => serve_mix::run(&args, &mut ctx),
        _ => stream_persist::run(&args, &mut ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let fastest = ctx.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    out.detail("setup_reps", "count", ctx.setup_s.len() as f64);
    out.detail("setup_min_s", "s", fastest);
    let peak_rss = meta::peak_rss_mb();
    out.e2e("peak_rss_mb", "MB", peak_rss);
    if let Some(m) = out
        .end_to_end
        .iter()
        .find(|m| !m.value.is_finite() || m.value <= 0.0)
    {
        let what = format!("end-to-end metric {} is {}", m.name, m.value);
        out.fail(what);
    }

    // The run length is part of the configuration: schedules, and with
    // them set-up and memory, scale with it.
    let config = format!("{} seconds={}", out.config, args.seconds);
    let hash = meta::hash(config.as_bytes());
    let metadata = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("config", config),
        ("config_hash", hash),
        ("inputs_hash", out.inputs_hash.clone()),
        ("nproc", meta::nproc().to_string()),
        ("cpu", meta::cpu_model()),
        ("rustc", meta::rustc_version()),
        ("git_rev", meta::git_revision()),
        (
            "counting_allocator",
            bmf_bench::alloc::counting_enabled().to_string(),
        ),
    ];
    let correct = out.failures.is_empty();
    let report = full_report(&metadata, &out, correct);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.results)
        .and_then(|()| std::fs::write(args.results.join(format!("{stem}.json")), &report))
        .and_then(|()| {
            if !args.trace {
                return Ok(());
            }
            let mut spans = ctx.tracer;
            if let Some(p) = ctx.probe_tracer {
                spans.absorb(p);
            }
            std::fs::write(
                args.results.join(format!("{stem}-spans.tsv")),
                spans.to_tsv(),
            )
        });
    if let Err(e) = written {
        eprintln!("wallbench: cannot write results: {e}");
    }

    for (k, v) in &metadata {
        println!("# {k}: {v}");
    }
    for (name, c) in &out.classes {
        println!(
            "# requests {name}: sent {} ok {} failed {} within_limit {}",
            c.sent, c.ok, c.failed, c.within_limit
        );
    }
    for m in &out.detail {
        println!("# detail {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("# FAILED CHECK: {f}");
    }
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{}",
        result_line(correct, out.attempted(), out.failed(), metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The run's full JSON report: metadata, request accounting and every
/// metric taken.
fn full_report(metadata: &[(&str, String)], out: &Outcome, correct: bool) -> String {
    let meta: Vec<String> = metadata
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let classes: Vec<String> = out
        .classes
        .iter()
        .map(|(name, c)| {
            format!(
                "{}: {{\"sent\": {}, \"ok\": {}, \"failed\": {}, \"within_limit\": {}}}",
                json_str(name),
                c.sent,
                c.ok,
                c.failed,
                c.within_limit
            )
        })
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"meta\": {{{}}}, \"correct\": {correct}, \"failures\": [{}], \"requests\": {{{}}}, \
         \"end_to_end\": {}, \"detail\": {}, \"per_layer\": {}}}\n",
        meta.join(", "),
        failures.join(", "),
        classes.join(", "),
        metrics_json(&out.end_to_end),
        metrics_json(&out.detail),
        metrics_json(&out.per_layer)
    )
}
