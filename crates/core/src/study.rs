//! The feasibility study itself: run the zoo, aggregate by the minimum,
//! decide REALISTIC/UNREALISTIC, and attach guidance.

use crate::config::SnoopyConfig;
use crate::guidance::AdditionalGuidance;
use crate::session::StudySession;
use snoopy_data::TaskDataset;
use snoopy_embeddings::Transformation;
use snoopy_knn::IncrementalTopK;

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
        self.session(task, zoo).into_report()
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
        self.session(task, zoo).finish_winner()
    }

    /// Admits the study with cold arms and steps its bandit loop until the
    /// strategy is done.
    fn session<'a>(&self, task: &'a TaskDataset, zoo: &'a [Box<dyn Transformation>]) -> StudySession<'a> {
        let mut session = StudySession::admit(self.config, task, zoo, None);
        while session.step() {}
        session
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
