//! One feasibility study in flight: admission, the bandit loop, and the
//! report. [`crate::FeasibilityStudy`] steps one session inline; the
//! [`crate::FeasibilityService`] steps one per tenant, each step a task on
//! the shared pool.

use crate::arm::TransformationArm;
use crate::config::SnoopyConfig;
use crate::guidance::AdditionalGuidance;
use crate::service::StudyProgress;
use crate::study::{FeasibilityDecision, StudyReport, TransformationResult};
use snoopy_bandit::StrategyDriver;
use snoopy_data::TaskDataset;
use snoopy_embeddings::{EmbeddingCache, Transformation};
use snoopy_estimators::cover_hart_lower_bound;
use snoopy_knn::IncrementalTopK;
use std::sync::Arc;
use std::time::Instant;

/// One study's arms, the driver that schedules their pulls, and what the
/// report needs besides.
pub(crate) struct StudySession<'a> {
    config: SnoopyConfig,
    task: &'a TaskDataset,
    zoo: &'a [Box<dyn Transformation>],
    arms: Vec<TransformationArm<'a>>,
    driver: StrategyDriver,
    /// The service's embedding cache the arms read from, with its simulated
    /// cost at admission: the delta is what this study paid for inference.
    cache: Option<(Arc<EmbeddingCache>, f64)>,
    started: Instant,
}

impl<'a> StudySession<'a> {
    /// Admits one study: one arm per transformation, cold or (given the
    /// service's `cache`) over cached embeddings, filling the cache on first
    /// contact, and a fresh driver with the configured strategy and budget.
    ///
    /// # Panics
    /// Panics with the [`crate::ConfigError`] message if the configuration
    /// is invalid, and on an empty zoo or a task without train or test
    /// samples.
    pub(crate) fn admit(
        config: SnoopyConfig,
        task: &'a TaskDataset,
        zoo: &'a [Box<dyn Transformation>],
        cache: Option<Arc<EmbeddingCache>>,
    ) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(!zoo.is_empty(), "the transformation zoo must not be empty");
        assert!(!task.train.is_empty() && !task.test.is_empty(), "task must have train and test samples");
        let batch_size = config.batch_size(task.train.len());
        let budget = config.effective_budget(zoo.len(), config.batches_for(task.train.len()));
        let cache = cache.map(|cache| {
            let cost_before = cache.simulated_cost();
            (cache, cost_before)
        });
        let arms: Vec<TransformationArm<'a>> = zoo
            .iter()
            .map(|t| {
                let arm = TransformationArm::new(t.as_ref(), task, config.metric, batch_size);
                match &cache {
                    Some((cache, _)) => arm.with_embeddings(cache.get_or_compute(t.as_ref(), task)),
                    None => arm,
                }
            })
            .collect();
        let driver = StrategyDriver::new(config.strategy, arms.len(), budget);
        Self { config, task, zoo, arms, driver, cache, started: Instant::now() }
    }

    /// Runs the strategy's next phase of pulls; `false` once it is done.
    /// The phase's busy arms run as tasks on the current pool, and each
    /// arm's engine scans split over that same pool's workers, so arm-level
    /// and query-level parallelism share one set of threads.
    pub(crate) fn step(&mut self) -> bool {
        self.driver.step(&mut self.arms)
    }

    /// The service's progress event for this study after a round: the
    /// leading transformation, its BER estimate and the work spent so far.
    pub(crate) fn progress(&self, tenant: usize, round: usize) -> StudyProgress {
        let per_transformation = self.results();
        let (lead, ber_estimate) = best_of(&per_transformation);
        StudyProgress {
            tenant,
            round,
            leading_transformation: per_transformation[lead].name.clone(),
            ber_estimate,
            eval_pairs: per_transformation.iter().map(|r| r.eval_pairs).sum(),
        }
    }

    /// The report over the arms as the bandit left them.
    pub(crate) fn into_report(self) -> StudyReport {
        let per_transformation = self.results();
        self.assemble(per_transformation)
    }

    /// Finishes the winning arm — appends only the batches the scheduler had
    /// not consumed; nothing is re-embedded or rebuilt — and re-aggregates
    /// (its error moves as it converges). If finishing dethrones it, the new
    /// winner is finished too; this reaches a fixpoint because finished arms
    /// stop moving. Returns the report and the winner's own incremental
    /// state, moved out of its arm.
    pub(crate) fn finish_winner(mut self) -> (StudyReport, IncrementalTopK) {
        let mut per_transformation = self.results();
        let winner = loop {
            let (finished, _) = best_of(&per_transformation);
            self.arms[finished].finish();
            per_transformation[finished] = self.result(finished);
            if best_of(&per_transformation).0 == finished {
                break finished;
            }
        };
        let state = self.arms[winner].take_state().expect("winner was finished above");
        (self.assemble(per_transformation), state)
    }

    fn result(&self, i: usize) -> TransformationResult {
        let arm = &self.arms[i];
        let curve = arm.curve();
        let one_nn_error = curve.last().map_or(1.0, |&(_, e)| e);
        TransformationResult {
            name: self.zoo[i].name().to_string(),
            one_nn_error,
            ber_estimate: cover_hart_lower_bound(one_nn_error, self.task.num_classes),
            curve,
            consumed_samples: arm.consumed_samples(),
            simulated_cost: arm.simulated_cost(),
            eval_pairs: arm.eval_pairs(),
        }
    }

    fn results(&self) -> Vec<TransformationResult> {
        (0..self.arms.len()).map(|i| self.result(i)).collect()
    }

    /// The decision rule, projected accuracy, gap and Section IV-C guidance
    /// over `per_transformation`.
    fn assemble(self, per_transformation: Vec<TransformationResult>) -> StudyReport {
        let (best_idx, ber_estimate) = best_of(&per_transformation);
        let arm_cost: f64 = per_transformation.iter().map(|r| r.simulated_cost).sum();
        // Warm arms charge nothing; a served study's inference is what its
        // cache charged since admission.
        let inference_cost = self.cache.map_or(0.0, |(cache, before)| cache.simulated_cost() - before);
        let target_error = self.config.target_error();
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
            self.task.num_classes,
            self.task.train.len(),
        );
        StudyReport {
            task: self.task.name.clone(),
            target_accuracy: self.config.target_accuracy,
            decision,
            ber_estimate,
            projected_accuracy,
            gap: projected_accuracy - self.config.target_accuracy,
            best_transformation: per_transformation[best_idx].name.clone(),
            per_transformation,
            simulated_cost_seconds: arm_cost + inference_cost,
            wall_clock_seconds: self.started.elapsed().as_secs_f64(),
            guidance,
        }
    }
}

/// Aggregates by taking the minimum over all transformations that actually
/// consumed data (Section IV): `(best index, aggregated BER estimate)`.
fn best_of(results: &[TransformationResult]) -> (usize, f64) {
    results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.consumed_samples > 0)
        .map(|(i, r)| (i, r.ber_estimate))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0, 1.0))
}
