//! `snoopy` — command-line feasibility study on the built-in dataset replicas.
//!
//! ```bash
//! # Is 90% accuracy realistic on a CIFAR-10-like task with 40% uniform label noise?
//! snoopy --dataset cifar10 --noise uniform:0.4 --target 0.9
//!
//! # CIFAR-N style human noise, larger replica, exhaustive scheduler
//! snoopy --dataset cifar10-aggre --target 0.95 --scale standard --strategy exhaustive
//! ```
//!
//! The binary exists so that the system can be exercised end to end without
//! writing any Rust; library users should prefer [`snoopy::prelude`].

use snoopy::data::noise::cifar_n_variants;
use snoopy::data::registry::{self, SizeScale};
use snoopy::prelude::*;
use std::io::{self, Write};
use std::process::ExitCode;

struct Args {
    dataset: String,
    /// `--noise`, if given; CIFAR-N variants bring their own noise instead.
    noise: Option<NoiseModel>,
    target: f64,
    scale: SizeScale,
    strategy: SelectionStrategy,
    batch_fraction: f64,
    seed: u64,
}

fn usage() -> String {
    format!(
        "usage: snoopy [--dataset NAME] [--noise clean|uniform:RHO|pairwise:RHO] [--target ACC]\n\
         \x20             [--scale tiny|small|standard] [--strategy sh-tangent|sh|uniform|exhaustive]\n\
         \x20             [--batch-fraction F] [--seed N]\n\
         \n\
         datasets: mnist cifar10 cifar100 imdb sst2 yelp, or a CIFAR-N variant\n\
         ({}),\n\
         which carries its own class-dependent noise and takes no --noise",
        registry::cifar_n_names().join(" ")
    )
}

/// Parses the command line; `Ok(None)` asks for the usage text (`--help`).
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        dataset: "cifar10".to_string(),
        noise: None,
        target: 0.9,
        scale: SizeScale::Small,
        strategy: SelectionStrategy::SuccessiveHalvingTangent,
        batch_fraction: 0.1,
        seed: 42,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        // The flag is matched before its value is read, so an unknown flag is
        // reported as unknown even when nothing follows it.
        let value = || argv.get(i + 1).ok_or_else(|| format!("missing value for {flag}"));
        match flag {
            "--dataset" => args.dataset = value()?.clone(),
            "--target" => {
                let value = value()?;
                args.target = value.parse().map_err(|_| format!("invalid target accuracy {value}"))?
            }
            "--seed" => {
                let value = value()?;
                args.seed = value.parse().map_err(|_| format!("invalid seed {value}"))?
            }
            "--batch-fraction" => {
                let value = value()?;
                args.batch_fraction = value.parse().map_err(|_| format!("invalid batch fraction {value}"))?
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "tiny" => SizeScale::Tiny,
                    "small" => SizeScale::Small,
                    "standard" => SizeScale::Standard,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            "--strategy" => {
                args.strategy = match value()?.as_str() {
                    "sh-tangent" => SelectionStrategy::SuccessiveHalvingTangent,
                    "sh" => SelectionStrategy::SuccessiveHalving,
                    "uniform" => SelectionStrategy::Uniform,
                    "exhaustive" => SelectionStrategy::Exhaustive,
                    other => return Err(format!("unknown strategy {other}")),
                }
            }
            "--noise" => {
                let value = value()?;
                args.noise = Some(if value == "clean" {
                    NoiseModel::Clean
                } else if let Some(rho) = value.strip_prefix("uniform:") {
                    NoiseModel::Uniform(parse_noise_level(rho)?)
                } else if let Some(rho) = value.strip_prefix("pairwise:") {
                    NoiseModel::Pairwise(parse_noise_level(rho)?)
                } else {
                    return Err(format!("unknown noise model {value}"));
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Some(args))
}

/// A flip probability in `[0, 1]` (NaN rejected).
fn parse_noise_level(rho: &str) -> Result<f64, String> {
    match rho.parse::<f64>() {
        Ok(level) if (0.0..=1.0).contains(&level) => Ok(level),
        Ok(level) => Err(format!("noise level must be in [0, 1], got {level}")),
        Err(_) => Err(format!("invalid noise level {rho}")),
    }
}

/// Loads the task with the noise model its labels carry: a CIFAR-N variant's
/// own class-dependent matrix, else `--noise` (default clean). `--noise` with
/// a CIFAR-N variant is an error, raised before anything loads: the
/// variant's loader would ignore it.
fn load_task(args: &Args) -> Result<(TaskDataset, NoiseModel), String> {
    if let Some(variant) = cifar_n_variants().into_iter().find(|v| v.name == args.dataset) {
        if args.noise.is_some() {
            return Err(format!(
                "--noise does not apply to {}: a CIFAR-N variant carries its own class-dependent noise",
                variant.name
            ));
        }
        let task = registry::load_cifar_n(&variant.name, args.scale, args.seed);
        return Ok((task, NoiseModel::ClassDependent(variant.matrix)));
    }
    if registry::spec_by_name(&args.dataset).is_none() {
        return Err(format!("unknown dataset {}", args.dataset));
    }
    let noise = args.noise.clone().unwrap_or(NoiseModel::Clean);
    Ok((registry::load_with_noise(&args.dataset, args.scale, &noise, args.seed), noise))
}

/// Prints `error: message` and the usage text; the process then exits with
/// code 1.
fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{}", usage());
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => return fail(&message),
    };
    // Reject a bad configuration before the task load and zoo fit pay for it.
    let config =
        SnoopyConfig::with_target(args.target).strategy(args.strategy).batch_fraction(args.batch_fraction);
    if let Err(e) = config.validate() {
        return fail(&e.to_string());
    }
    let (task, noise) = match load_task(&args) {
        Ok(loaded) => loaded,
        Err(message) => return fail(&message),
    };
    match run(&args, config, &noise, &task, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader went away (`snoopy … | head`): nothing left to report to.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write the report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the study and writes the report to `out`, stopping at the first
/// failed write.
fn run(
    args: &Args,
    config: SnoopyConfig,
    noise: &NoiseModel,
    task: &TaskDataset,
    out: &mut impl Write,
) -> io::Result<()> {
    writeln!(
        out,
        "dataset            : {} ({} classes, {} train / {} test)",
        task.name,
        task.num_classes,
        task.train.len(),
        task.test.len()
    )?;
    writeln!(out, "noise model        : {}", noise.describe())?;
    writeln!(out, "observed noise rate: {:.3}", task.observed_noise_rate())?;
    if let Some(ber) = task.meta.true_ber {
        writeln!(out, "replica clean BER  : {ber:.4}")?;
    }

    let zoo = zoo_for_task(task, args.seed);
    let report = FeasibilityStudy::new(config).run(task, &zoo);

    writeln!(out, "\n=== Snoopy verdict ===")?;
    writeln!(out, "target accuracy    : {:.3}", args.target)?;
    writeln!(out, "decision           : {}", report.decision.name())?;
    writeln!(out, "BER estimate       : {:.4}", report.ber_estimate)?;
    writeln!(out, "projected accuracy : {:.4}", report.projected_accuracy)?;
    writeln!(out, "gap to target      : {:+.4}", report.gap)?;
    writeln!(out, "best transformation: {}", report.best_transformation)?;
    writeln!(out, "simulated GPU cost : {:.1} s", report.simulated_cost_seconds)?;
    writeln!(out, "wall clock         : {:.2} s", report.wall_clock_seconds)?;
    writeln!(out, "\n--- additional guidance (Section IV-C) ---\n{}", report.guidance.render())?;
    out.flush()
}
