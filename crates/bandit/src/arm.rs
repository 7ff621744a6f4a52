//! The arm abstraction pulled by the selection strategies, plus the shared
//! pull/cost bookkeeping every concrete arm reuses.

/// A non-stochastic bandit arm.
///
/// One *pull* consumes one unit of budget (for Snoopy: one training batch fed
/// to the streamed 1NN evaluator plus the inference cost of embedding that
/// batch) and returns the arm's current loss (the 1NN test error). Losses are
/// assumed to (noisily) decrease and converge as more budget is spent.
///
/// Arms are `Send` so the strategies can pull independent arms as tasks on
/// the current `snoopy-pool` pool.
pub trait Arm: Send {
    /// A short identifier (the transformation name for Snoopy arms).
    fn name(&self) -> &str;

    /// Performs one pull and returns the loss after it.
    ///
    /// Pulling an exhausted arm must be a no-op returning the final loss.
    fn pull(&mut self) -> f64;

    /// Number of pulls performed so far.
    fn pulls(&self) -> usize;

    /// Whether the arm has consumed all of its underlying data.
    fn exhausted(&self) -> bool;

    /// The most recent loss (1.0 before the first pull by convention).
    fn current_loss(&self) -> f64;

    /// Cost of a single pull in simulated seconds (inference + 1NN update).
    /// Used for the runtime accounting of Figure 12; defaults to 1.
    fn cost_per_pull(&self) -> f64 {
        1.0
    }

    /// Total simulated cost charged so far. Defaults to the ledger-free
    /// approximation `pulls × cost_per_pull`; arms with a [`PullLedger`]
    /// report the exact accumulated figure.
    fn accumulated_cost(&self) -> f64 {
        self.pulls() as f64 * self.cost_per_pull()
    }

    /// True incremental evaluation work performed so far, in query–row
    /// distance pairs: an arm whose pulls *append* to a running kNN state
    /// reports exactly the pairs each batch folded (`O(batch × queries)`,
    /// less under pruning) — not a rebuild-shaped estimate. Strategies and
    /// reports read it for cost accounting; defaults to 0 for arms without
    /// an eval kernel.
    fn eval_pairs(&self) -> u64 {
        0
    }
}

impl<T: Arm + ?Sized> Arm for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn pull(&mut self) -> f64 {
        (**self).pull()
    }
    fn pulls(&self) -> usize {
        (**self).pulls()
    }
    fn exhausted(&self) -> bool {
        (**self).exhausted()
    }
    fn current_loss(&self) -> f64 {
        (**self).current_loss()
    }
    fn cost_per_pull(&self) -> f64 {
        (**self).cost_per_pull()
    }
    fn accumulated_cost(&self) -> f64 {
        (**self).accumulated_cost()
    }
    fn eval_pairs(&self) -> u64 {
        (**self).eval_pairs()
    }
}

/// Shared pull/cost bookkeeping for concrete arms.
///
/// Before this ledger existed, every arm implementation (the pre-recorded
/// test arm here and the transformation arm in `snoopy-core`) duplicated the
/// same counters; they now both record through one type, and the strategies
/// read simulated cost from the same place.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PullLedger {
    pulls: usize,
    simulated_cost: f64,
    eval_pairs: u64,
}

impl PullLedger {
    /// A fresh ledger with nothing recorded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one pull costing `cost` simulated seconds.
    pub fn record_pull(&mut self, cost: f64) {
        self.pulls += 1;
        self.simulated_cost += cost;
    }

    /// Records a charge that is not a pull (e.g. one-off test-set inference).
    pub fn charge(&mut self, cost: f64) {
        self.simulated_cost += cost;
    }

    /// Records incremental evaluation work (query–row distance pairs folded
    /// by a pull). The figure is what [`Arm::eval_pairs`] surfaces to the
    /// strategies: true append cost, not a rebuild estimate.
    pub fn record_eval_pairs(&mut self, pairs: u64) {
        self.eval_pairs += pairs;
    }

    /// Number of pulls recorded.
    pub fn pulls(&self) -> usize {
        self.pulls
    }

    /// Total simulated cost recorded, in seconds.
    pub fn simulated_cost(&self) -> f64 {
        self.simulated_cost
    }

    /// Total evaluation work recorded, in query–row distance pairs.
    pub fn eval_pairs(&self) -> u64 {
        self.eval_pairs
    }
}

/// An arm backed by a pre-recorded loss curve. Used in tests and to replay
/// convergence curves inside the benchmarks without re-running kNN.
#[derive(Debug, Clone)]
pub struct PrerecordedArm {
    name: String,
    curve: Vec<f64>,
    ledger: PullLedger,
    cost_per_pull: f64,
}

impl PrerecordedArm {
    /// Creates an arm that replays `curve` (loss after pull 1, 2, ...).
    ///
    /// # Panics
    /// Panics if the curve is empty.
    pub fn new(name: &str, curve: Vec<f64>) -> Self {
        assert!(!curve.is_empty(), "pre-recorded arm needs at least one loss value");
        Self { name: name.to_string(), curve, ledger: PullLedger::new(), cost_per_pull: 1.0 }
    }

    /// Sets the per-pull cost used for runtime accounting.
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.cost_per_pull = cost;
        self
    }

    /// The full loss curve this arm replays.
    pub fn curve(&self) -> &[f64] {
        &self.curve
    }
}

impl Arm for PrerecordedArm {
    fn name(&self) -> &str {
        &self.name
    }

    fn pull(&mut self) -> f64 {
        if self.ledger.pulls() < self.curve.len() {
            self.ledger.record_pull(self.cost_per_pull);
        }
        self.current_loss()
    }

    fn pulls(&self) -> usize {
        self.ledger.pulls()
    }

    fn exhausted(&self) -> bool {
        self.ledger.pulls() >= self.curve.len()
    }

    fn current_loss(&self) -> f64 {
        if self.ledger.pulls() == 0 {
            1.0
        } else {
            self.curve[self.ledger.pulls() - 1]
        }
    }

    fn cost_per_pull(&self) -> f64 {
        self.cost_per_pull
    }

    fn accumulated_cost(&self) -> f64 {
        self.ledger.simulated_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prerecorded_arm_replays_curve() {
        let mut arm = PrerecordedArm::new("a", vec![0.5, 0.4, 0.3]);
        assert_eq!(arm.current_loss(), 1.0);
        assert!(!arm.exhausted());
        assert_eq!(arm.pull(), 0.5);
        assert_eq!(arm.pull(), 0.4);
        assert_eq!(arm.pull(), 0.3);
        assert!(arm.exhausted());
        // Pulling past the end is a no-op.
        assert_eq!(arm.pull(), 0.3);
        assert_eq!(arm.pulls(), 3);
    }

    #[test]
    fn cost_defaults_and_overrides() {
        let arm = PrerecordedArm::new("a", vec![0.1]);
        assert_eq!(arm.cost_per_pull(), 1.0);
        let pricey = PrerecordedArm::new("b", vec![0.1]).with_cost(2.5);
        assert_eq!(pricey.cost_per_pull(), 2.5);
    }

    #[test]
    fn ledger_tracks_pulls_cost_and_eval_pairs() {
        let mut ledger = PullLedger::new();
        ledger.charge(0.5);
        ledger.record_pull(2.0);
        ledger.record_pull(1.0);
        ledger.record_eval_pairs(120);
        ledger.record_eval_pairs(80);
        assert_eq!(ledger.pulls(), 2);
        assert!((ledger.simulated_cost() - 3.5).abs() < 1e-12);
        assert_eq!(ledger.eval_pairs(), 200);
        // Arms without an eval kernel default to zero.
        assert_eq!(PrerecordedArm::new("a", vec![0.1]).eval_pairs(), 0);
    }

    #[test]
    fn accumulated_cost_reflects_actual_pulls() {
        let mut arm = PrerecordedArm::new("a", vec![0.5, 0.4]).with_cost(3.0);
        arm.pull();
        assert!((arm.accumulated_cost() - 3.0).abs() < 1e-12);
        arm.pull();
        arm.pull(); // no-op past the end: no extra cost
        assert!((arm.accumulated_cost() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one loss")]
    fn rejects_empty_curve() {
        let _ = PrerecordedArm::new("a", vec![]);
    }
}
