//! The feasibility study itself: run the zoo, aggregate by the minimum,
//! decide REALISTIC/UNREALISTIC, and attach guidance.

use crate::arm::TransformationArm;
use crate::config::SnoopyConfig;
use crate::guidance::AdditionalGuidance;
use snoopy_bandit::run_strategy;
use snoopy_data::TaskDataset;
use snoopy_embeddings::Transformation;
use snoopy_estimators::cover_hart_lower_bound;
use snoopy_knn::IncrementalTopK;
use std::time::Instant;

/// Snoopy's binary output signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeasibilityDecision {
    /// The target accuracy appears achievable.
    Realistic,
    /// The target accuracy appears unachievable with the current data.
    Unrealistic,
}

impl FeasibilityDecision {
    /// Human-readable form.
    pub fn name(&self) -> &'static str {
        match self {
            FeasibilityDecision::Realistic => "REALISTIC",
            FeasibilityDecision::Unrealistic => "UNREALISTIC",
        }
    }
}

/// Per-transformation outcome.
#[derive(Debug, Clone)]
pub struct TransformationResult {
    /// Transformation name.
    pub name: String,
    /// Raw 1NN test error after the last consumed batch.
    pub one_nn_error: f64,
    /// Cover–Hart BER lower-bound estimate (Eq. 2) at that point.
    pub ber_estimate: f64,
    /// Convergence curve `(consumed training samples, 1NN error)`.
    pub curve: Vec<(usize, f64)>,
    /// Raw training samples consumed by the scheduler for this arm.
    pub consumed_samples: usize,
    /// Simulated inference cost charged to this transformation (seconds).
    pub simulated_cost: f64,
    /// True incremental evaluation work performed by this arm's appends, in
    /// query–row distance pairs (post-pruning) — `O(Σ batch × queries)`, not
    /// a rebuild per round.
    pub eval_pairs: u64,
}

/// The full report returned by a feasibility study.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// The task name.
    pub task: String,
    /// The target accuracy the user asked about.
    pub target_accuracy: f64,
    /// Snoopy's binary signal.
    pub decision: FeasibilityDecision,
    /// The aggregated BER estimate `R̂ = min_f R̂_{f(X),n}`.
    pub ber_estimate: f64,
    /// Best-possible-accuracy estimate `1 − R̂` implicitly returned to the
    /// user.
    pub projected_accuracy: f64,
    /// Gap between the projected accuracy and the target (positive means the
    /// target is below what Snoopy believes achievable).
    pub gap: f64,
    /// Name of the transformation achieving the minimum.
    pub best_transformation: String,
    /// Per-transformation details (ordered as the zoo was given).
    pub per_transformation: Vec<TransformationResult>,
    /// Total simulated cost in seconds (inference dominates, as in Section V).
    pub simulated_cost_seconds: f64,
    /// Wall-clock seconds actually spent by this (CPU) reproduction.
    pub wall_clock_seconds: f64,
    /// Additional guidance of Section IV-C.
    pub guidance: AdditionalGuidance,
}

impl StudyReport {
    /// Convenience accessor mirroring the paper's decision rule.
    pub fn is_realistic(&self) -> bool {
        self.decision == FeasibilityDecision::Realistic
    }
}

/// Reads one arm's outcome into a [`TransformationResult`]. Shared between
/// the one-shot study and the multi-tenant service so both report the exact
/// same numbers from the exact same state.
pub(crate) fn result_of(arm: &TransformationArm<'_>, name: &str, num_classes: usize) -> TransformationResult {
    let curve = arm.curve();
    let one_nn_error = curve.last().map(|&(_, e)| e).unwrap_or(1.0);
    TransformationResult {
        name: name.to_string(),
        one_nn_error,
        ber_estimate: cover_hart_lower_bound(one_nn_error, num_classes),
        curve,
        consumed_samples: arm.consumed_samples(),
        simulated_cost: arm.simulated_cost(),
        eval_pairs: snoopy_bandit::Arm::eval_pairs(arm),
    }
}

/// Aggregates by taking the minimum over all transformations that actually
/// consumed data (Section IV): `(best index, aggregated BER estimate)`.
pub(crate) fn best_of(results: &[TransformationResult]) -> (usize, f64) {
    results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.consumed_samples > 0)
        .map(|(i, r)| (i, r.ber_estimate))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 1.0))
}

/// Builds the final report from aggregated per-transformation results —
/// decision rule, projected accuracy, gap, and the Section IV-C guidance.
pub(crate) fn assemble_report(
    config: &SnoopyConfig,
    task: &TaskDataset,
    per_transformation: Vec<TransformationResult>,
    best_idx: usize,
    ber_estimate: f64,
    simulated_cost_seconds: f64,
    wall_clock_seconds: f64,
) -> StudyReport {
    let target_error = config.target_error();
    let decision = if ber_estimate <= target_error {
        FeasibilityDecision::Realistic
    } else {
        FeasibilityDecision::Unrealistic
    };
    let projected_accuracy = 1.0 - ber_estimate;
    let guidance = AdditionalGuidance::from_results(
        &per_transformation,
        best_idx,
        target_error,
        task.num_classes,
        task.train.len(),
    );
    StudyReport {
        task: task.name.clone(),
        target_accuracy: config.target_accuracy,
        decision,
        ber_estimate,
        projected_accuracy,
        gap: projected_accuracy - config.target_accuracy,
        best_transformation: per_transformation[best_idx].name.clone(),
        per_transformation,
        simulated_cost_seconds,
        wall_clock_seconds,
        guidance,
    }
}

/// The feasibility-study engine.
pub struct FeasibilityStudy {
    config: SnoopyConfig,
}

impl FeasibilityStudy {
    /// Creates a study with the given configuration.
    ///
    /// # Panics
    /// Panics with the [`crate::ConfigError`] message if the configuration
    /// is invalid.
    pub fn new(config: SnoopyConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnoopyConfig {
        &self.config
    }

    /// Runs the feasibility study for `task` over the given transformation
    /// zoo and returns the full report.
    pub fn run(&self, task: &TaskDataset, zoo: &[Box<dyn Transformation>]) -> StudyReport {
        self.evaluate(task, zoo, false).0
    }

    /// Runs the study and additionally returns the *winning arm's own
    /// incremental state*, ready for real-time re-evaluation after label
    /// cleaning. The winner is *finished* (only the batches the scheduler
    /// had not yet consumed are embedded and appended — nothing is
    /// re-embedded, nothing is rebuilt) and its [`IncrementalTopK`] is moved
    /// out of the arm: the bandit loop, the cleaning loop, and any estimator
    /// reading the state's neighbour table all operate on one and the same
    /// successor state. The extra inference is charged to the report like
    /// every other pull.
    pub fn run_with_cache(
        &self,
        task: &TaskDataset,
        zoo: &[Box<dyn Transformation>],
    ) -> (StudyReport, IncrementalTopK) {
        let (report, cache) = self.evaluate(task, zoo, true);
        (report, cache.expect("evaluate(finish_winner = true) always builds the cache"))
    }

    fn evaluate(
        &self,
        task: &TaskDataset,
        zoo: &[Box<dyn Transformation>],
        finish_winner: bool,
    ) -> (StudyReport, Option<IncrementalTopK>) {
        assert!(!zoo.is_empty(), "the transformation zoo must not be empty");
        assert!(!task.train.is_empty() && !task.test.is_empty(), "task must have train and test samples");
        let start = Instant::now();
        let batch_size = self.config.batch_size(task.train.len());
        let batches = self.config.batches_for(task.train.len());
        let budget = self.config.effective_budget(zoo.len(), batches);

        // Build one arm per transformation and let the scheduler spend the
        // budget; the strategy executors in `snoopy-bandit` pull independent
        // arms as tasks on the current pool, and each arm's engine scans
        // split over that same pool's workers, so arm-level and query-level
        // parallelism share one set of threads instead of oversubscribing.
        let mut arms: Vec<TransformationArm<'_>> = zoo
            .iter()
            .map(|t| TransformationArm::new(t.as_ref(), task, self.config.metric, batch_size))
            .collect();
        let _outcome = run_strategy(self.config.strategy, &mut arms, budget);

        let mut per_transformation: Vec<TransformationResult> =
            arms.iter().enumerate().map(|(i, arm)| result_of(arm, zoo[i].name(), task.num_classes)).collect();
        let (mut best_idx, mut ber_estimate) = best_of(&per_transformation);

        let cache = if finish_winner {
            // Append the winner's remaining batches and re-aggregate (its
            // error moves as it converges). If finishing dethrones it, finish
            // the new winner too; this reaches a fixpoint because finished
            // arms stop moving.
            loop {
                let finished = best_idx;
                arms[finished].finish();
                per_transformation[finished] =
                    result_of(&arms[finished], zoo[finished].name(), task.num_classes);
                (best_idx, ber_estimate) = best_of(&per_transformation);
                if best_idx == finished {
                    break;
                }
            }
            // Move the winner's state out of its arm: the cleaning loop keeps
            // relabelling the very state the bandit grew.
            Some(arms[best_idx].take_state().expect("winner was finished above"))
        } else {
            None
        };
        let simulated_cost: f64 = per_transformation.iter().map(|r| r.simulated_cost).sum();
        drop(arms);

        let report = assemble_report(
            &self.config,
            task,
            per_transformation,
            best_idx,
            ber_estimate,
            simulated_cost,
            start.elapsed().as_secs_f64(),
        );
        (report, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_bandit::SelectionStrategy;
    use snoopy_data::noise::NoiseModel;
    use snoopy_data::registry::{load_clean, load_with_noise, SizeScale};
    use snoopy_embeddings::zoo_for_task;

    fn run_study(task: &TaskDataset, target: f64, strategy: SelectionStrategy) -> StudyReport {
        let zoo = zoo_for_task(task, 7);
        FeasibilityStudy::new(SnoopyConfig::with_target(target).strategy(strategy).batch_fraction(0.25))
            .run(task, &zoo)
    }

    #[test]
    fn clean_easy_task_with_modest_target_is_realistic() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let report = run_study(&task, 0.7, SelectionStrategy::Exhaustive);
        assert!(report.is_realistic(), "ber estimate {}", report.ber_estimate);
        assert!(report.gap > 0.0);
        assert_eq!(report.decision.name(), "REALISTIC");
        assert!(report.simulated_cost_seconds > 0.0);
        assert!(!report.best_transformation.is_empty());
        assert_eq!(report.per_transformation.len(), zoo_for_task(&task, 7).len());
    }

    #[test]
    fn heavy_noise_with_ambitious_target_is_unrealistic() {
        // 80% uniform noise on a binary task raises the BER to ~0.4; a 95%
        // accuracy target is then hopeless.
        let task = load_with_noise("sst2", SizeScale::Tiny, &NoiseModel::Uniform(0.8), 3);
        let report = run_study(&task, 0.95, SelectionStrategy::Exhaustive);
        assert!(!report.is_realistic(), "ber estimate {}", report.ber_estimate);
        assert!(report.ber_estimate > 0.05);
        assert!(report.gap < 0.0);
    }

    #[test]
    fn estimate_is_a_plausible_lower_bound_of_the_true_ber_plus_noise() {
        let task = load_with_noise("cifar10", SizeScale::Tiny, &NoiseModel::Uniform(0.4), 5);
        let report = run_study(&task, 0.9, SelectionStrategy::Exhaustive);
        // Lemma 2.1: true noisy BER = ber + 0.4 * (0.9 - ber) ≈ 0.36 for a
        // near-zero clean BER. The estimate must not wildly exceed it and must
        // clearly detect the noise.
        assert!(report.ber_estimate > 0.1, "estimate {}", report.ber_estimate);
        assert!(report.ber_estimate < 0.6, "estimate {}", report.ber_estimate);
    }

    #[test]
    fn successive_halving_consumes_less_inference_than_exhaustive() {
        let task = load_clean("cifar10", SizeScale::Tiny, 9);
        let exhaustive = run_study(&task, 0.9, SelectionStrategy::Exhaustive);
        let sh = run_study(&task, 0.9, SelectionStrategy::SuccessiveHalvingTangent);
        assert!(
            sh.simulated_cost_seconds < exhaustive.simulated_cost_seconds,
            "SH {} vs exhaustive {}",
            sh.simulated_cost_seconds,
            exhaustive.simulated_cost_seconds
        );
        // The aggregate estimate should not differ wildly (SH keeps the best arm).
        assert!((sh.ber_estimate - exhaustive.ber_estimate).abs() < 0.15);
    }

    #[test]
    fn study_is_bit_identical_across_pool_worker_counts() {
        // Successive halving pulls several arms per round as tasks on the
        // current pool, and every pull's engine scan splits over that same
        // pool: the report must not move by one bit at any worker count.
        let task = load_with_noise("cifar10", SizeScale::Tiny, &NoiseModel::Uniform(0.2), 13);
        let zoo = zoo_for_task(&task, 7);
        let study = FeasibilityStudy::new(
            SnoopyConfig::with_target(0.9).strategy(SelectionStrategy::SuccessiveHalving).batch_fraction(0.1),
        );
        type Arm = (String, u64, Vec<(usize, u64)>, usize, u64);
        let fingerprint = |workers: usize| -> (String, u64, Vec<Arm>) {
            let report = snoopy_pool::ThreadPool::new(workers).install(|| study.run(&task, &zoo));
            let arms = report
                .per_transformation
                .iter()
                .map(|r| {
                    let curve = r.curve.iter().map(|&(n, e)| (n, e.to_bits())).collect();
                    (r.name.clone(), r.ber_estimate.to_bits(), curve, r.consumed_samples, r.eval_pairs)
                })
                .collect();
            (report.best_transformation, report.ber_estimate.to_bits(), arms)
        };
        let serial = fingerprint(1);
        let pulled = serial.2.iter().filter(|arm| arm.3 > 0).count();
        assert!(pulled >= 3, "the first round must pull several arms, pulled {pulled}");
        for workers in [2, 3] {
            assert_eq!(fingerprint(workers), serial, "workers {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "zoo must not be empty")]
    fn empty_zoo_panics() {
        let task = load_clean("mnist", SizeScale::Tiny, 11);
        let zoo: Vec<Box<dyn Transformation>> = vec![];
        let _ = FeasibilityStudy::new(SnoopyConfig::default()).run(&task, &zoo);
    }
}
