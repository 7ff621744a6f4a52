//! `serve`: a `FeasibilityService` with two warm tenants, the vision and the
//! text replica of `study`.
//!
//! An input is one service with its two tenants: set-up generates them,
//! fits both zoos and serves the cold first round, which fills the
//! service's embedding caches. A call to `serve()` answers one request per
//! tenant, and both tenants re-submit as soon as it returns; step `i` is a
//! batch of such calls to the service of input `i mod 3`. Each call's check: every report matches the
//! tenant's solo `FeasibilityStudy::run` bit for bit and charges no
//! simulated inference cost.

use crate::stats::quantile;
use crate::study::REPLICAS;
use crate::trace::{wrap_zoo, Profile, Tracer};
use crate::{cli_config, Metric, Outcome, Record, Workload, NOISE_RATE, SCALE};
use snoopy_core::{FeasibilityService, FeasibilityStudy, StudyReport, StudyRequest};
use snoopy_data::registry::load_with_noise;
use snoopy_data::{NoiseModel, TaskDataset};
use snoopy_embeddings::{zoo_for_task, Transformation};
use std::sync::Arc;
use std::time::Instant;

/// `serve()` calls per step: about a second, so that a step's quantiles
/// rest on a hundred requests.
const CALLS_PER_STEP: usize = 50;

/// One service and its two tenants.
pub struct Tenants {
    tasks: Vec<TaskDataset>,
    zoos: Vec<Vec<Box<dyn Transformation>>>,
    service: FeasibilityService,
    /// The tenants' solo answers, which every served report must match.
    solo: Vec<Answer>,
}

pub struct Serve {
    inputs: Vec<Tenants>,
}

fn requests<'a>(tasks: &'a [TaskDataset], zoos: &'a [Vec<Box<dyn Transformation>>]) -> Vec<StudyRequest<'a>> {
    tasks.iter().zip(zoos).map(|(task, zoo)| StudyRequest { task, zoo, config: cli_config() }).collect()
}

/// One arm's curve (samples, error bits), consumed samples and pairs.
type ArmBits = (Vec<(usize, u64)>, usize, u64);

/// A report reduced to the bits the service promises to reproduce.
#[derive(PartialEq, Debug)]
pub struct Answer {
    winner: String,
    ber: u64,
    decision: &'static str,
    per_arm: Vec<ArmBits>,
}

fn answer_of(report: &StudyReport) -> Answer {
    Answer {
        winner: report.best_transformation.clone(),
        ber: report.ber_estimate.to_bits(),
        decision: report.decision.name(),
        per_arm: report
            .per_transformation
            .iter()
            .map(|r| {
                (r.curve.iter().map(|&(n, e)| (n, e.to_bits())).collect(), r.consumed_samples, r.eval_pairs)
            })
            .collect(),
    }
}

impl Tenants {
    /// One checked `serve()` call: the tenants' answers and the call's
    /// seconds.
    fn call(&mut self, tracer: &Arc<Tracer>) -> Result<(Vec<Answer>, f64), String> {
        let Tenants { tasks, zoos, service, solo } = self;
        let requests = requests(tasks, zoos);
        // (time, round, tenant, eval pairs) of every progress event.
        let mut events: Vec<(f64, usize, usize, u64)> = Vec::new();
        let (mut begin, mut end) = (0.0, 0.0);
        let started = Instant::now();
        let (reports, root) = tracer.span_id("op.serve", || {
            begin = tracer.now();
            let reports = service.serve_with_progress(&requests, |e| {
                events.push((tracer.now(), e.round, e.tenant, e.eval_pairs))
            });
            end = tracer.now();
            reports
        });
        let latency = started.elapsed().as_secs_f64();

        if tracer.recording() {
            // A round ends at its first progress event; admission falls in
            // round 1 and report assembly after the last event.
            let mut pieces = Vec::new();
            let (mut from, mut round) = (begin, 0);
            for &(at, r, _, _) in &events {
                if r != round {
                    pieces.push(("core.serve_round", from, at));
                    (from, round) = (at, r);
                }
            }
            pieces.push(("core.serve_report", from, end));
            tracer.split(root, &pieces);
            tracer.add("bandit.rounds", round as f64);
            let mut last_pairs = vec![0u64; requests.len()];
            for &(_, _, tenant, pairs) in &events {
                last_pairs[tenant] = pairs;
            }
            tracer.add("knn.eval_pairs", last_pairs.iter().sum::<u64>() as f64);
            for report in &reports {
                let results = &report.per_transformation;
                tracer.add("bandit.pulls", results.iter().map(|r| r.curve.len() as f64).sum());
                if let Some(best) = results.iter().find(|r| r.name == report.best_transformation) {
                    tracer.add("bandit.winner_pulls", best.curve.len() as f64);
                }
            }
        }

        let answers: Vec<Answer> = reports.iter().map(answer_of).collect();
        for ((report, answer), solo) in reports.iter().zip(&answers).zip(solo.iter()) {
            if answer != solo {
                return Err(format!("{}: the warm report differs from the solo study", report.task));
            }
            if report.simulated_cost_seconds != 0.0 {
                return Err(format!(
                    "{}: a warm request charged {} s of inference",
                    report.task, report.simulated_cost_seconds
                ));
            }
        }
        Ok((answers, latency))
    }
}

impl Workload for Serve {
    type Input = Tenants;
    type Output = Vec<Answer>;

    /// Each input costs two zoo fits in set-up, so three, not four.
    const INPUTS: usize = 3;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Tenants {
        let noise = NoiseModel::Uniform(NOISE_RATE);
        let tasks: Vec<TaskDataset> = REPLICAS
            .iter()
            .map(|name| tracer.span("data.generate", || load_with_noise(name, SCALE, &noise, seed)))
            .collect();
        let zoos: Vec<_> = tasks
            .iter()
            .map(|task| {
                let zoo = tracer.span("embeddings.zoo_fit", || zoo_for_task(task, seed));
                if tracer.recording() {
                    wrap_zoo(zoo, tracer)
                } else {
                    zoo
                }
            })
            .collect();
        let mut service = FeasibilityService::new();
        tracer.span("core.serve_cold", || service.serve(&requests(&tasks, &zoos)));
        Tenants { tasks, zoos, service, solo: Vec::new() }
    }

    fn new(mut inputs: Vec<Tenants>) -> Self {
        let study = FeasibilityStudy::new(cli_config());
        for t in &mut inputs {
            t.solo =
                t.tasks.iter().zip(&t.zoos).map(|(task, zoo)| answer_of(&study.run(task, zoo))).collect();
        }
        Serve { inputs }
    }

    fn ops_per_step(&self) -> (u64, u64) {
        let requests = (CALLS_PER_STEP * REPLICAS.len()) as u64;
        (requests, requests)
    }

    /// The step's figures are the median and the 90th percentile of its
    /// requests' latencies.
    fn step(
        &mut self,
        index: usize,
        rec: &mut Record,
        tracer: &Arc<Tracer>,
    ) -> Result<Outcome<Vec<Answer>>, String> {
        let tenants = &mut self.inputs[index % Self::INPUTS];
        let mut latencies = Vec::with_capacity(CALLS_PER_STEP * REPLICAS.len());
        let mut answers = Vec::new();
        for _ in 0..CALLS_PER_STEP {
            let (call, latency) = tenants.call(tracer)?;
            for _ in &call {
                rec.primary.push("request", latency);
                latencies.push(latency);
            }
            answers = call;
        }
        Ok(Outcome {
            output: answers,
            primary: quantile(&latencies, 0.5).expect("a step serves requests"),
            secondary: quantile(&latencies, 0.9).expect("a step serves requests"),
        })
    }

    fn summary(&self, rec: &Record) -> Vec<String> {
        let mut lines = vec![format!(
            "primary_s = request_p50_s, secondary_s = request_p90_s: seconds of the serve() call that \
             answered the request (a step: {CALLS_PER_STEP} calls); served_per_s: the primary operations \
             per second above"
        )];
        lines.extend(rec.primary.describe_classes().into_iter().map(|(_, d)| format!("request_s: {d}")));
        lines
    }

    fn layers(&self, p: &Profile, steps: f64) -> Vec<Metric> {
        let calls = steps * CALLS_PER_STEP as f64;
        let rounds = p.op("core.serve_round");
        let pairs = p.counter("knn.eval_pairs");
        vec![
            Metric::new("core.serve_round_s", rounds / calls, "s"),
            Metric::new("core.serve_report_s", p.op("core.serve_report") / calls, "s"),
            Metric::new("core.self_s", p.op_prefix("core.") / calls, "s"),
            Metric::new("embeddings.transform_s", p.op("embeddings.transform") / calls, "s"),
            Metric::new("knn.eval_pairs", pairs / calls, "count"),
            Metric::new("knn.pairs_per_s", pairs / rounds, "1/s"),
            Metric::new("bandit.rounds", p.counter("bandit.rounds") / calls, "count"),
            Metric::new("bandit.round_s", rounds / p.counter("bandit.rounds"), "s"),
            Metric::new("bandit.pulls", p.counter("bandit.pulls") / calls, "count"),
            Metric::new(
                "bandit.winner_pull_frac",
                p.counter("bandit.winner_pulls") / p.counter("bandit.pulls"),
                "frac",
            ),
        ]
    }
}
