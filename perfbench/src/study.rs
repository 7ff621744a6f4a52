//! `study`: cold label-cleaning sessions, CLI-shaped, on a vision and a
//! text replica.
//!
//! An input is a seeded replica pair; step `i` runs one session on each
//! replica of input `i mod 4`. A session fits the zoo (`zoo_for_task`),
//! bootstraps an [`IncrementalStudy`] (the first decision), then runs 1 %
//! `clean_fraction` rounds, each followed by a `refresh` re-check. Its
//! check: the last re-check's 1NN error equals a cold brute-force 1NN error
//! on the winner's embedding with the cleaned labels.

use crate::stats::median;
use crate::trace::{wrap_zoo, Profile, Tracer};
use crate::{cli_config, Metric, Outcome, Record, Workload, NOISE_RATE, SCALE};
use snoopy_core::IncrementalStudy;
use snoopy_data::cleaning::clean_fraction;
use snoopy_data::registry::load_with_noise;
use snoopy_data::{NoiseModel, TaskDataset};
use snoopy_embeddings::zoo_for_task;
use snoopy_knn::BruteForceIndex;
use snoopy_linalg::rng;
use std::sync::Arc;
use std::time::Instant;

/// The vision and the text replica.
pub const REPLICAS: [&str; 2] = ["cifar10", "sst2"];

/// Cleaning rounds per session, each cleaning this share of all labels.
const ROUNDS: usize = 25;
const CLEAN_SHARE: f64 = 0.01;

/// An input's seed and one task per replica.
pub type Input = (u64, Vec<TaskDataset>);

pub struct Study {
    inputs: Vec<Input>,
}

/// What a session produced: the first report's winner, BER and curves,
/// and every re-check's 1NN error, all as bits.
#[derive(PartialEq)]
pub struct Session {
    winner: String,
    ber: u64,
    curves: Vec<Vec<(usize, u64)>>,
    rechecks: Vec<u64>,
}

/// A checked session with its verdict seconds and median re-check seconds.
struct SessionRun {
    session: Session,
    verdict: f64,
    recheck: f64,
}

fn session(
    seed: u64,
    base: &TaskDataset,
    rec: &mut Record,
    tracer: &Arc<Tracer>,
) -> Result<SessionRun, String> {
    let mut task = base.clone();
    let config = cli_config();
    let mut cleaning = rng::seeded(seed ^ 0xc1ea_0001);
    let (zoo, study, rechecks, verdict, latencies) = tracer.span("op.study", || {
        let started = Instant::now();
        let zoo = tracer.span("embeddings.zoo_fit", || zoo_for_task(&task, seed));
        let zoo = if tracer.recording() { wrap_zoo(zoo, tracer) } else { zoo };
        let mut study = tracer.span("core.study", || IncrementalStudy::bootstrap(config, &task, &zoo));
        let verdict = started.elapsed().as_secs_f64();
        let mut rechecks = Vec::with_capacity(ROUNDS);
        let mut latencies = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            tracer.span("data.clean", || clean_fraction(&mut task, CLEAN_SHARE, &mut cleaning));
            let asked = Instant::now();
            let answer = tracer.span("knn.relabel", || study.refresh(&task));
            latencies.push(asked.elapsed().as_secs_f64());
            rechecks.push(answer.one_nn_error);
        }
        (zoo, study, rechecks, verdict, latencies)
    });
    rec.primary.push(&task.name, verdict);
    for &latency in &latencies {
        rec.secondary.push(&task.name, latency);
    }

    let report = study.initial_report();
    let winner = zoo
        .iter()
        .position(|t| t.name() == study.best_transformation())
        .ok_or_else(|| format!("winner {} is not in the zoo", study.best_transformation()))?;
    let last = *rechecks.last().expect("ROUNDS > 0");
    let cold = tracer.untraced(|| {
        let train = zoo[winner].transform(task.train.features_view());
        let test = zoo[winner].transform(task.test.features_view());
        BruteForceIndex::new(&train, &task.train.labels, task.num_classes, config.metric)
            .one_nn_error(&test, &task.test.labels)
    });
    if last != cold {
        return Err(format!("{}: refreshed 1NN error {last} != cold 1NN error {cold}", task.name));
    }

    let results = &report.per_transformation;
    tracer.add("knn.eval_pairs", results.iter().map(|r| r.eval_pairs as f64).sum());
    tracer.add("bandit.pulls", results.iter().map(|r| r.curve.len() as f64).sum());
    if let Some(best) = results.iter().find(|r| r.name == report.best_transformation) {
        tracer.add("bandit.winner_pulls", best.curve.len() as f64);
    }
    Ok(SessionRun {
        session: Session {
            winner: report.best_transformation.clone(),
            ber: report.ber_estimate.to_bits(),
            curves: results
                .iter()
                .map(|r| r.curve.iter().map(|&(n, e)| (n, e.to_bits())).collect())
                .collect(),
            rechecks: rechecks.iter().map(|e| e.to_bits()).collect(),
        },
        verdict,
        recheck: median(&latencies).expect("ROUNDS > 0"),
    })
}

impl Workload for Study {
    type Input = Input;
    type Output = Vec<Session>;

    /// Sessions are cold by design: a warm-up step would measure nothing
    /// users see.
    const WARM_UP: bool = false;

    const INPUTS: usize = 4;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Input {
        let noise = NoiseModel::Uniform(NOISE_RATE);
        let tasks = REPLICAS
            .iter()
            .map(|name| tracer.span("data.generate", || load_with_noise(name, SCALE, &noise, seed)))
            .collect();
        (seed, tasks)
    }

    fn new(inputs: Vec<Input>) -> Self {
        Study { inputs }
    }

    fn ops_per_step(&self) -> (u64, u64) {
        let sessions = REPLICAS.len() as u64;
        (sessions, sessions * (1 + ROUNDS as u64))
    }

    /// The step's figures are the means over its two sessions.
    fn step(
        &mut self,
        index: usize,
        rec: &mut Record,
        tracer: &Arc<Tracer>,
    ) -> Result<Outcome<Vec<Session>>, String> {
        let (seed, tasks) = &self.inputs[index % Self::INPUTS];
        let timed =
            tasks.iter().map(|task| session(*seed, task, rec, tracer)).collect::<Result<Vec<_>, _>>()?;
        let n = timed.len() as f64;
        Ok(Outcome {
            primary: timed.iter().map(|t| t.verdict).sum::<f64>() / n,
            secondary: timed.iter().map(|t| t.recheck).sum::<f64>() / n,
            output: timed.into_iter().map(|t| t.session).collect(),
        })
    }

    fn summary(&self, rec: &Record) -> Vec<String> {
        let mut lines = vec![
            "primary_s = verdict_s: seconds from a loaded task to its first decision, zoo fit included \
             (a step's figure: the mean over its two replicas)"
                .to_string(),
        ];
        lines.extend(rec.primary.describe_classes().into_iter().map(|(c, d)| format!("verdict_s[{c}]: {d}")));
        lines.push(format!(
            "secondary_s = recheck_p50_s: seconds per refresh after a 1 % cleaning round \
             (a step's figure: the mean over its two sessions' medians of {ROUNDS} rounds)"
        ));
        lines.extend(
            rec.secondary.describe_classes().into_iter().map(|(c, d)| format!("recheck_s[{c}]: {d}")),
        );
        lines
    }

    fn layers(&self, p: &Profile, steps: f64) -> Vec<Metric> {
        let sessions = steps * REPLICAS.len() as f64;
        let rounds = sessions * ROUNDS as f64;
        let zoo_fit = p.op("embeddings.zoo_fit");
        let study_self = p.op("core.study");
        let pairs = p.counter("knn.eval_pairs");
        let verdict = zoo_fit + p.op("embeddings.transform") + study_self;
        vec![
            Metric::new("embeddings.zoo_fit_s", zoo_fit / sessions, "s"),
            Metric::new("embeddings.zoo_fit_share_of_verdict", zoo_fit / verdict, "frac"),
            Metric::new("embeddings.transform_s", p.op("embeddings.transform") / sessions, "s"),
            Metric::new(
                "embeddings.transform_rows",
                p.counter("embeddings.transform_rows") / sessions,
                "count",
            ),
            Metric::new("core.study_self_s", study_self / sessions, "s"),
            Metric::new("core.self_s", p.op_prefix("core.") / sessions, "s"),
            Metric::new("knn.eval_pairs", pairs / sessions, "count"),
            Metric::new("knn.pairs_per_s", pairs / study_self, "1/s"),
            Metric::new("knn.relabel_s", p.op("knn.relabel") / rounds, "s"),
            Metric::new("data.clean_s", p.op("data.clean") / rounds, "s"),
            Metric::new("bandit.pulls", p.counter("bandit.pulls") / sessions, "count"),
            Metric::new(
                "bandit.winner_pull_frac",
                p.counter("bandit.winner_pulls") / p.counter("bandit.pulls"),
                "frac",
            ),
        ]
    }
}
