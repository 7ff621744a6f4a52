//! End-to-end benchmark of the Snoopy feasibility-study workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|serve|oocore|sliding --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop on the shared worker pool:
//! it derives the workload's inputs from `--seed`, generates each and does
//! the set-up users pay once for it (each timed), then repeats the
//! workload's step for `--seconds`, checking every output. The last line of
//! standard output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`, with the end-to-end metrics when untraced and the per-layer
//! metrics when traced. The lines before it give every metric by name and
//! unit, and the environment (core count, pool workers, seed, scale,
//! commit, CPU steal).
//!
//! Each step yields the workload's two latency figures and its CPU per
//! operation; the JSON figure of a run is, per input, the lower quartile of
//! its steps, averaged over inputs (see [`stats::StepFigures`]).
//!
//! A traced run alternates an untraced step with a traced one: the traced
//! step wraps each zoo member in a timing transformation and each call into
//! a layer in a span, must reproduce the untraced step's outputs bit for
//! bit, and the difference between the two is the tracing overhead. Spans
//! are kept in memory and written to `.perfbench_out/` at the end.

mod oocore;
mod procfs;
mod serve;
mod sliding;
mod stats;
mod study;
mod trace;

use snoopy_bandit::SelectionStrategy;
use snoopy_core::SnoopyConfig;
use stats::{Samples, StepFigures};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{Profile, Tracer};

/// Label noise of every replica: uniform, at this rate.
const NOISE_RATE: f64 = 0.3;

/// Scale of every replica.
const SCALE: snoopy_data::SizeScale = snoopy_data::SizeScale::Small;

/// Where spans and scratch files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// The seed of the `i`-th input a run derives from its seed (`i = 0` is
/// the seed itself).
fn sub_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The CLI's study configuration: SH-tangent, batch fraction 0.1, target 0.9.
fn cli_config() -> SnoopyConfig {
    SnoopyConfig::with_target(0.9).strategy(SelectionStrategy::SuccessiveHalvingTangent).batch_fraction(0.1)
}

/// Raw latency samples of one process, for the report lines.
#[derive(Default)]
pub struct Record {
    /// The workload's headline latency.
    pub primary: Samples,
    /// Its second latency, where it has one of its own.
    pub secondary: Samples,
}

/// What a passing step produced.
pub struct Outcome<O> {
    /// Compared bit for bit between an untraced and a traced step.
    pub output: O,
    /// The step's headline latency figure: `verdict_s`, `request_p50_s`,
    /// `paged_study_s` or `slide_p50_s`.
    pub primary: f64,
    /// Its second latency figure: `recheck_p50_s`, `request_p90_s`,
    /// `resident_study_s` or `slide_p90_s`.
    pub secondary: f64,
}

/// A metric of the per-layer report.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// One input, set up.
    type Input;

    /// What one step produced, compared bit for bit between an untraced
    /// step and the traced step after it.
    type Output: PartialEq;

    /// Whether one untimed step runs before the timed phase, so that
    /// first-touch costs users do not pay per operation stay out of it.
    const WARM_UP: bool = true;

    /// Inputs a run derives from its seed, each set up and timed on its
    /// own; step `i` uses input `i mod INPUTS`. Several inputs keep one
    /// draw's cost from deciding a run's figures, and give `setup_s`
    /// several samples.
    const INPUTS: usize;

    /// Generates one seeded input and does the work users pay once for it.
    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Self::Input;

    /// The workload over its inputs, with the reference answers of its
    /// checks (untimed).
    fn new(inputs: Vec<Self::Input>) -> Self;

    /// Operations one step performs: `(primary, checked)`. Primary
    /// operations are the unit of `cpu_per_op_s` and of the throughput;
    /// checked ones are the unit of `attempted` and `failed`.
    fn ops_per_step(&self) -> (u64, u64);

    /// Runs the closed loop's step number `index` on input
    /// `index % INPUTS` and checks its outputs. The traced step of an
    /// iteration gets the same index as the untraced one. Recording on the
    /// tracer selects the traced variant.
    fn step(
        &mut self,
        index: usize,
        rec: &mut Record,
        tracer: &Arc<Tracer>,
    ) -> Result<Outcome<Self::Output>, String>;

    /// Report lines: what the two latency figures are, under the
    /// workload's own metric names, and the raw samples.
    fn summary(&self, rec: &Record) -> Vec<String>;

    /// Per-layer metrics from the traced steps' profile; `steps` traced
    /// steps succeeded. Must include `core.self_s`, `knn.eval_pairs` and
    /// `knn.pairs_per_s`.
    fn layers(&self, profile: &Profile, steps: f64) -> Vec<Metric>;
}

/// The JSON `metrics` of an untraced run, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_per_op_s", "s"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
];

/// The JSON `metrics` of a traced run: the per-layer metrics every
/// workload has.
const PER_LAYER: [&str; 5] =
    ["data.generate_s", "core.self_s", "knn.eval_pairs", "knn.pairs_per_s", "pool.cpu_util"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload study|serve|oocore|sliding --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("missing value for {}", pair[0])) };
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or_else(|| format!("missing {flag}"));
    let args = Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds: get("--seconds")?.parse().map_err(|_| "--seconds takes a number".to_string())?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if let Some(unknown) =
        flags.keys().find(|f| !["--workload", "--seed", "--seconds", "--trace"].contains(f))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let json = match args.workload.as_str() {
        "study" => run::<study::Study>(&args),
        "serve" => run::<serve::Serve>(&args),
        "oocore" => run::<oocore::Oocore>(&args),
        "sliding" => run::<sliding::Sliding>(&args),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{json}");
    ExitCode::SUCCESS
}

/// Step counts, wall times and figures of one variant (untraced or
/// traced).
#[derive(Default)]
struct Tally {
    steps: u64,
    ok_steps: u64,
    wall: Vec<f64>,
    /// The latency figures as the steps measured them, stolen time kept.
    raw_primary: StepFigures,
    raw_secondary: StepFigures,
    primary: StepFigures,
    secondary: StepFigures,
    cpu_per_op: StepFigures,
}

/// Runs one step under `catch_unwind`, so a failure is counted instead of
/// ending the run. Returns the output when the step passed its checks.
fn attempt<W: Workload>(
    workload: &mut W,
    index: usize,
    rec: &mut Record,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
) -> Option<W::Output> {
    tally.steps += 1;
    let (primary_ops, _) = workload.ops_per_step();
    let cpu = procfs::cpu_seconds();
    let host = procfs::HostTicks::now();
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| workload.step(index, rec, tracer)));
    tally.wall.push(started.elapsed().as_secs_f64());
    match outcome {
        Ok(Ok(outcome)) => {
            // The latency figures keep only the share of wall time the host
            // let the program run: time stolen by other tenants of the
            // machine, as `/proc/stat` reports it, is taken out.
            let kept = 1.0 - procfs::HostTicks::now().stolen_while_busy(&host);
            let input = index % W::INPUTS;
            tally.ok_steps += 1;
            tally.raw_primary.push(input, outcome.primary);
            tally.raw_secondary.push(input, outcome.secondary);
            tally.primary.push(input, outcome.primary * kept);
            tally.secondary.push(input, outcome.secondary * kept);
            tally.cpu_per_op.push(input, (procfs::cpu_seconds() - cpu) / primary_ops as f64);
            Some(outcome.output)
        }
        Ok(Err(message)) => {
            eprintln!("check failed: {message}");
            None
        }
        Err(_) => {
            eprintln!("step panicked");
            None
        }
    }
}

fn run<W: Workload>(args: &Args) -> String {
    let tracer = Tracer::new();
    tracer.set_recording(args.trace);
    let mut setup_times = Vec::new();
    let inputs = (0..W::INPUTS)
        .map(|i| {
            let started = Instant::now();
            let input = tracer.span("setup", || W::setup(sub_seed(args.seed, i), &tracer));
            setup_times.push(started.elapsed().as_secs_f64());
            input
        })
        .collect();
    tracer.set_recording(false);
    let mut workload = W::new(inputs);
    let mut warm_up = Tally::default();
    if W::WARM_UP {
        attempt(&mut workload, 0, &mut Record::default(), &tracer, &mut warm_up);
    }

    let rss_reset = procfs::reset_peak_rss();
    let cpu_before = procfs::cpu_seconds();
    let host_before = procfs::HostTicks::now();
    let (primary_per_step, checked_per_step) = workload.ops_per_step();
    let mut rec = Record::default();
    let mut traced_rec = Record::default();
    let mut plain = Tally::default();
    let mut traced = Tally::default();
    let started = Instant::now();
    while plain.steps == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let index = plain.steps as usize;
        let reference = attempt(&mut workload, index, &mut rec, &tracer, &mut plain);
        if args.trace {
            tracer.set_recording(true);
            let output = attempt(&mut workload, index, &mut traced_rec, &tracer, &mut traced);
            tracer.set_recording(false);
            if let (Some(a), Some(b)) = (&reference, &output) {
                if a != b {
                    eprintln!("check failed: the traced step's outputs differ from the untraced step's");
                    traced.ok_steps -= 1;
                }
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds() - cpu_before;
    let steal = procfs::HostTicks::now().steal_since(&host_before);
    let peak_rss_mb = procfs::peak_rss_mb();

    let tallies = [&warm_up, &plain, &traced];
    let attempted = tallies.iter().map(|t| t.steps).sum::<u64>() * checked_per_step;
    let failed = tallies.iter().map(|t| t.steps - t.ok_steps).sum::<u64>() * checked_per_step;
    let workers = snoopy_pool::workers();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "env: workload={} nproc={nproc} pool_workers={workers} seed={} scale={SCALE:?} commit={} \
         seconds={} trace={} host_cpu_steal={:.4} peak_rss_reset={}",
        args.workload,
        args.seed,
        procfs::commit(),
        args.seconds,
        u8::from(args.trace),
        steal,
        if rss_reset { "ok" } else { "unavailable (peak since start)" },
    );
    println!("error_rate = {} ({failed} failed / {attempted} attempted)", failed as f64 / attempted as f64);

    let correct = failed == 0;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let profile = tracer.profile();
        let setups = setup_times.len() as f64;
        let mut layers = workload.layers(&profile, traced.ok_steps as f64);
        // Set-up spans report per input, under their own name unless the
        // operations already report that name.
        for (name, total) in &profile.setup_self {
            let name = format!("{name}_s");
            let name = if layers.iter().any(|m| m.name == name) { format!("setup.{name}") } else { name };
            layers.push(Metric::new(name, total / setups, "s"));
        }
        layers.push(Metric::new("pool.workers", workers as f64, "count"));
        layers.push(Metric::new("pool.cpu_util", cpu / (wall * workers as f64), "frac"));
        for m in &layers {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        let step_wall: f64 = traced.wall.iter().sum();
        println!(
            "trace coverage = {:.4} of the traced steps' {step_wall:.3} s wall time (output checks included), \
             {:.4} of their operations' {:.3} s",
            profile.covered / step_wall,
            profile.covered / profile.op_wall,
            profile.op_wall
        );
        if let (Some(u), Some(t)) = (stats::median(&plain.wall), stats::median(&traced.wall)) {
            println!(
                "trace overhead = {:.6} s per step ({:+.2} %): traced p50 {t:.6} s vs untraced p50 {u:.6} s",
                t - u,
                100.0 * (t / u - 1.0)
            );
        }
        if let Some(path) = write_trace(&tracer, &args.workload, args.seed) {
            println!("spans written to {path}");
        }
        PER_LAYER
            .iter()
            .map(|&name| {
                let m = layers
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("no layer metric {name}"));
                (m.name.clone(), m.value, m.unit)
            })
            .collect()
    } else {
        let quiet = |f: &StepFigures| f.quiet_mean().unwrap_or(f64::NAN);
        let end_to_end = [
            stats::median(&setup_times).expect("set-up ran"),
            peak_rss_mb,
            quiet(&plain.cpu_per_op),
            quiet(&plain.primary),
            quiet(&plain.secondary),
        ];
        let details = [
            format!("median of {} set-ups, one per input", setup_times.len()),
            "VmHWM over the timed phase".to_string(),
            "process CPU (user + sys) per primary operation, per step".to_string(),
            "per step, host-stolen time taken out, see below".to_string(),
            "per step, host-stolen time taken out, see below".to_string(),
        ];
        for ((name, unit), (value, detail)) in END_TO_END.iter().zip(end_to_end.iter().zip(&details)) {
            println!("metric {name} = {value} {unit} ({detail})");
        }
        println!(
            "  before taking out stolen time: primary_s = {}, secondary_s = {}",
            quiet(&plain.raw_primary),
            quiet(&plain.raw_secondary)
        );
        let ops = (plain.ok_steps * primary_per_step) as f64;
        println!(
            "  whole timed phase: {} primary operations per second, {} CPU s per primary operation",
            ops / wall,
            cpu / ops
        );
        for line in workload.summary(&rec) {
            println!("  {line}");
        }
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect()
    };
    result_json(correct, attempted, failed, &metrics)
}

fn write_trace(tracer: &Tracer, workload: &str, seed: u64) -> Option<String> {
    let path = format!("{OUT_DIR}/trace-{workload}-seed{seed}.tsv");
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_tsv(std::path::Path::new(&path)));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("could not write {path}: {e}");
            None
        }
    }
}

/// The result line. A value that is not finite (a metric without samples)
/// is written as 0 and marks the run incorrect.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_full_precision() {
        let line = result_json(true, 10, 0, &[("a_s".to_string(), 0.1234567890123, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"a_s\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}}"
        );
        let bad = result_json(true, 1, 0, &[("x".to_string(), f64::NAN, "s")]);
        assert!(bad.starts_with("{\"correct\": false") && bad.contains("\"value\": 0.0"));
    }
}
