//! Configuration of a feasibility study.

use snoopy_bandit::SelectionStrategy;
use snoopy_knn::Metric;
use std::fmt;

/// Configuration of one Snoopy run.
#[derive(Debug, Clone, Copy)]
pub struct SnoopyConfig {
    /// The user's target accuracy `α_target` in `(0, 1]`.
    pub target_accuracy: f64,
    /// Scheduler used to allocate inference budget across transformations.
    pub strategy: SelectionStrategy,
    /// Fraction of the training set fed to each arm per pull (the paper tunes
    /// this "batch size" hyper-parameter over {1 %, 2 %, 5 %}).
    pub batch_fraction: f64,
    /// Distance metric for the 1NN evaluator.
    pub metric: Metric,
}

impl Default for SnoopyConfig {
    fn default() -> Self {
        Self {
            target_accuracy: 0.9,
            strategy: SelectionStrategy::SuccessiveHalvingTangent,
            batch_fraction: 0.05,
            metric: Metric::SquaredEuclidean,
        }
    }
}

impl SnoopyConfig {
    /// Creates a configuration with a target accuracy and defaults elsewhere.
    pub fn with_target(target_accuracy: f64) -> Self {
        Self { target_accuracy, ..Default::default() }
    }

    /// Sets the selection strategy.
    pub fn strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the per-pull batch fraction.
    pub fn batch_fraction(mut self, fraction: f64) -> Self {
        self.batch_fraction = fraction;
        self
    }

    /// The target *error* corresponding to the target accuracy.
    pub fn target_error(&self) -> f64 {
        1.0 - self.target_accuracy
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns the first field outside its valid range (NaN included).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.target_accuracy > 0.0 && self.target_accuracy <= 1.0) {
            return Err(ConfigError::TargetAccuracy(self.target_accuracy));
        }
        if !(self.batch_fraction > 0.0 && self.batch_fraction <= 1.0) {
            return Err(ConfigError::BatchFraction(self.batch_fraction));
        }
        Ok(())
    }

    /// Number of batches needed to stream the full training split.
    pub fn batches_for(&self, train_len: usize) -> usize {
        let batch = self.batch_size(train_len);
        train_len.div_ceil(batch)
    }

    /// Batch size in samples for a training split of `train_len` samples.
    pub fn batch_size(&self, train_len: usize) -> usize {
        ((train_len as f64 * self.batch_fraction).round() as usize).clamp(1, train_len.max(1))
    }

    /// The total pull budget of the budgeted strategies for `num_arms` arms
    /// over a training split that needs `batches` pulls per arm:
    /// `max(#arms, #batches · ⌈log₂ #arms⌉ · 2)`, enough for successive
    /// halving to fully converge its winner.
    pub fn effective_budget(&self, num_arms: usize, batches: usize) -> usize {
        let rounds = (num_arms.max(2) as f64).log2().ceil() as usize;
        (batches * rounds * 2).max(num_arms)
    }
}

/// Why [`SnoopyConfig::validate`] rejected a configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// The target accuracy lies outside `(0, 1]`.
    TargetAccuracy(f64),
    /// The per-pull batch fraction lies outside `(0, 1]`.
    BatchFraction(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TargetAccuracy(v) => write!(f, "target accuracy must be in (0, 1], got {v}"),
            ConfigError::BatchFraction(v) => write!(f, "batch fraction must be in (0, 1], got {v}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SnoopyConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.strategy, SelectionStrategy::SuccessiveHalvingTangent);
        assert!((c.target_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn builder_methods_chain() {
        let c = SnoopyConfig::with_target(0.8).strategy(SelectionStrategy::Uniform).batch_fraction(0.01);
        assert_eq!(c.strategy, SelectionStrategy::Uniform);
        assert!((c.batch_fraction - 0.01).abs() < 1e-12);
    }

    #[test]
    fn batch_arithmetic() {
        let c = SnoopyConfig::default().batch_fraction(0.05);
        assert_eq!(c.batch_size(1000), 50);
        assert_eq!(c.batches_for(1000), 20);
        assert_eq!(c.batch_size(3), 1);
        assert_eq!(c.batches_for(3), 3);
    }

    #[test]
    fn effective_budget_default() {
        let c = SnoopyConfig::default();
        assert_eq!(c.effective_budget(16, 20), 20 * 4 * 2);
        // Never fewer pulls than arms.
        assert_eq!(c.effective_budget(16, 1), 16);
    }

    #[test]
    fn rejects_zero_target() {
        assert_eq!(SnoopyConfig::with_target(0.0).validate(), Err(ConfigError::TargetAccuracy(0.0)));
    }
}
