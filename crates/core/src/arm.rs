//! Bandit arms backed by a feature transformation and the incremental top-k
//! successor state.
//!
//! Pulling a [`TransformationArm`] embeds one more batch of raw training
//! samples through its transformation and **appends** the embedded batch to
//! the arm's [`IncrementalTopK`] — `O(batch × queries)` kernel work, never a
//! rebuild of what earlier pulls already paid for — then returns the updated
//! test error. The simulated cost of a pull is the inference cost of the
//! batch (test-set inference is charged on the first pull), which is exactly
//! the cost structure that makes successive halving worthwhile in the paper
//! (Section V); the *true incremental evaluation cost* (query–row pairs the
//! append folded) is additionally reported to the strategies through
//! [`snoopy_bandit::Arm::eval_pairs`].
//!
//! Raw batches are sliced zero-copy from the task's training split
//! ([`snoopy_linalg::DatasetView`]); only the *embedded* batch is
//! materialised, appended, and dropped. Nothing is ever re-embedded or
//! reassembled for a rebuild — the study takes the winning arm's state itself
//! ([`TransformationArm::take_state`]) and hands it to the cleaning loop and
//! the estimators unchanged. Pull/cost bookkeeping lives in the shared
//! [`PullLedger`] from `snoopy-bandit`, the same ledger every other arm
//! implementation uses.

use snoopy_bandit::{Arm, PullLedger};
use snoopy_data::TaskDataset;
use snoopy_embeddings::{Transformation, TransformedTask};
use snoopy_knn::{EvalEngine, IncrementalTopK, Metric};
use std::sync::Arc;

/// A bandit arm evaluating one transformation on one task.
pub struct TransformationArm<'a> {
    transformation: &'a dyn Transformation,
    task: &'a TaskDataset,
    metric: Metric,
    batch_size: usize,
    /// Per-query neighbour capacity of the arm's state: 1 for the pure
    /// feasibility signal, larger when the winner's snapshot must also feed
    /// k-consuming estimators (the 1NN error is identical for every k).
    table_k: usize,
    /// Lazily initialised on the first pull (embedding the test split).
    state: Option<IncrementalTopK>,
    consumed: usize,
    ledger: PullLedger,
    /// Engine handed to the incremental state. The study throttles this to
    /// a per-arm share of the cores: the strategy layer already runs arms on
    /// their own worker threads, and nesting a full-width engine inside each
    /// would oversubscribe the CPU.
    engine: EvalEngine,
    /// Pre-computed embeddings of both splits (the feasibility service's
    /// warm path). When present, pulls slice the cached train rows
    /// zero-copy and the first pull clones the cached test embedding —
    /// no inference runs and no cost is charged here, because the
    /// [`snoopy_embeddings::EmbeddingCache`] that produced the value
    /// charged once at fill time. Transformations are deterministic
    /// row-wise functions, so the sliced cached rows are bit-identical to
    /// embedding the raw batch directly.
    embeddings: Option<Arc<TransformedTask>>,
}

impl<'a> TransformationArm<'a> {
    /// Creates an arm.
    pub fn new(
        transformation: &'a dyn Transformation,
        task: &'a TaskDataset,
        metric: Metric,
        batch_size: usize,
    ) -> Self {
        Self {
            transformation,
            task,
            metric,
            batch_size: batch_size.max(1),
            table_k: 1,
            state: None,
            consumed: 0,
            ledger: PullLedger::new(),
            engine: EvalEngine::parallel(),
            embeddings: None,
        }
    }

    /// Serves this arm from pre-computed embeddings: pulls slice the cached
    /// train rows instead of running inference, and the first pull clones
    /// the cached test embedding. The ledger charges nothing for warm pulls
    /// (the embedding cache charged once when it computed the value), but
    /// pull counts and eval-pair accounting are unchanged — and so is every
    /// observed error, bit for bit.
    ///
    /// # Panics
    /// Panics if the state already exists or the cached embeddings belong to
    /// a different transformation.
    pub fn with_embeddings(mut self, embeddings: Arc<TransformedTask>) -> Self {
        assert!(self.state.is_none(), "embeddings must be provided before the first pull");
        assert_eq!(
            embeddings.transformation,
            self.transformation.name(),
            "cached embeddings must come from this arm's transformation"
        );
        self.embeddings = Some(embeddings);
        self
    }

    /// Overrides the evaluation engine used by this arm's state.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the per-query neighbour capacity `k` retained by this arm's
    /// state (must be set before the first pull; clamped to ≥ 1).
    ///
    /// # Panics
    /// Panics if the state already exists.
    pub fn with_table_k(mut self, k: usize) -> Self {
        assert!(self.state.is_none(), "table_k must be set before the first pull");
        self.table_k = k.max(1);
        self
    }

    /// Swaps the engine in place, including on an already-started state.
    /// The study re-widens the winning arm with this before finishing it
    /// alone — the per-arm throttle only makes sense while the whole zoo is
    /// running concurrently.
    pub fn set_engine(&mut self, engine: EvalEngine) {
        self.engine = engine;
        if let Some(state) = self.state.as_mut() {
            state.set_engine(engine);
        }
    }

    /// Simulated inference cost charged so far (seconds).
    pub fn simulated_cost(&self) -> f64 {
        self.ledger.simulated_cost()
    }

    /// The convergence curve recorded so far: `(consumed samples, error)`.
    pub fn curve(&self) -> Vec<(usize, f64)> {
        self.state.as_ref().map(|s| s.curve().to_vec()).unwrap_or_default()
    }

    /// Number of raw training samples consumed.
    pub fn consumed_samples(&self) -> usize {
        self.consumed
    }

    /// Access to the underlying incremental state (once at least one pull
    /// happened).
    pub fn state(&self) -> Option<&IncrementalTopK> {
        self.state.as_ref()
    }

    /// Moves the incremental state out of the arm — what the study does with
    /// the winner after [`TransformationArm::finish`], so the cleaning loop
    /// and the estimators keep working on the *same* state the bandit grew
    /// (no re-embedding, no rebuild).
    pub fn take_state(&mut self) -> Option<IncrementalTopK> {
        self.state.take()
    }

    /// Pulls until the training split is fully consumed and returns the
    /// state, which then holds the exact top-k neighbour state over the
    /// whole training set. Additional pulls are charged to the ledger like
    /// any others.
    pub fn finish(&mut self) -> &IncrementalTopK {
        while !self.exhausted() {
            self.pull();
        }
        self.state.as_ref().expect("finish() pulled at least once on a non-empty task")
    }

    fn ensure_state(&mut self) {
        if self.state.is_some() {
            return;
        }
        let test_embedded = match &self.embeddings {
            Some(cached) => cached.test_features.clone(),
            None => {
                self.ledger.charge(self.transformation.cost_for(self.task.test.len()));
                self.transformation.transform(self.task.test.features_view())
            }
        };
        self.state = Some(
            IncrementalTopK::new(test_embedded, self.task.test.labels.clone(), self.metric, self.table_k)
                .with_engine(self.engine),
        );
    }
}

impl Arm for TransformationArm<'_> {
    fn name(&self) -> &str {
        self.transformation.name()
    }

    fn pull(&mut self) -> f64 {
        if self.exhausted() {
            return self.current_loss();
        }
        self.ensure_state();
        let start = self.consumed;
        let end = (start + self.batch_size).min(self.task.train.len());
        let embedded_cold;
        let (embedded, pull_cost) = match &self.embeddings {
            Some(cached) => (cached.train_features.view().slice_rows(start, end), 0.0),
            None => {
                let raw_batch = self.task.train.features_view().slice_rows(start, end);
                embedded_cold = self.transformation.transform(raw_batch);
                (embedded_cold.view(), self.transformation.cost_for(end - start))
            }
        };
        self.ledger.record_pull(pull_cost);
        let labels = &self.task.train.labels[start..end];
        let state = self.state.as_mut().expect("state initialised by ensure_state");
        let before = state.folded_pairs();
        let err = state.append(embedded, labels);
        self.ledger.record_eval_pairs(state.folded_pairs() - before);
        self.consumed = end;
        err
    }

    fn pulls(&self) -> usize {
        self.ledger.pulls()
    }

    fn exhausted(&self) -> bool {
        self.consumed >= self.task.train.len()
    }

    fn current_loss(&self) -> f64 {
        self.state.as_ref().map(|s| s.error()).unwrap_or(1.0)
    }

    fn cost_per_pull(&self) -> f64 {
        self.transformation.cost_for(self.batch_size)
    }

    fn accumulated_cost(&self) -> f64 {
        self.ledger.simulated_cost()
    }

    fn eval_pairs(&self) -> u64 {
        self.ledger.eval_pairs()
    }

    /// Resizes the inner engine to a per-arm share of the cores: with
    /// `active_arms` arms pulling concurrently on strategy worker threads, a
    /// full-width engine in each would oversubscribe the CPU; alone, the arm
    /// takes every core.
    fn on_concurrency(&mut self, active_arms: usize) {
        let share = (snoopy_knn::engine::num_threads() / active_arms.max(1)).max(1);
        self.set_engine(EvalEngine::with_threads(share));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::registry::{load_clean, SizeScale};
    use snoopy_embeddings::zoo_for_task;
    use snoopy_knn::BruteForceIndex;

    #[test]
    fn pulling_to_exhaustion_matches_full_evaluation() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let zoo = zoo_for_task(&task, 2);
        let best = zoo.iter().find(|t| t.name() == "efficientnet-b7").unwrap();
        let batch = (task.train.len() / 4).max(1);
        let mut arm = TransformationArm::new(best.as_ref(), &task, Metric::SquaredEuclidean, batch);
        assert_eq!(arm.current_loss(), 1.0);
        while !arm.exhausted() {
            arm.pull();
        }
        let full_train = best.transform(task.train.features_view());
        let full_test = best.transform(task.test.features_view());
        let full_err =
            BruteForceIndex::new(&full_train, &task.train.labels, task.num_classes, Metric::SquaredEuclidean)
                .one_nn_error(&full_test, &task.test.labels);
        assert!((arm.current_loss() - full_err).abs() < 1e-12);
        assert_eq!(arm.consumed_samples(), task.train.len());
        assert!(arm.simulated_cost() > 0.0);
        // The curve has one point per pull, and the arm reported exactly the
        // incremental kernel work: every appended row against every query.
        assert_eq!(arm.curve().len(), arm.pulls());
        assert_eq!(arm.eval_pairs(), (task.train.len() * task.test.len()) as u64);
    }

    #[test]
    fn finished_arm_hands_over_its_state_without_reembedding() {
        let task = load_clean("mnist", SizeScale::Tiny, 7);
        let zoo = zoo_for_task(&task, 8);
        let best = zoo.iter().find(|t| t.name() == "efficientnet-b7").unwrap();
        let batch = (task.train.len() / 3).max(1);
        let mut arm =
            TransformationArm::new(best.as_ref(), &task, Metric::SquaredEuclidean, batch).with_table_k(3);
        arm.pull(); // partially consumed
        arm.finish();
        let state = arm.take_state().expect("finished arm holds a state");
        assert!(arm.state().is_none(), "take_state moves the state out");

        let full_train = best.transform(task.train.features_view());
        let full_test = best.transform(task.test.features_view());
        let rebuilt = IncrementalTopK::build(
            &full_train,
            &task.train.labels,
            &full_test,
            &task.test.labels,
            Metric::SquaredEuclidean,
            3,
        );
        assert!((state.error() - rebuilt.error()).abs() < 1e-12);
        // The k = 3 table grown pull by pull equals the cold build's.
        assert_eq!(state.table(), rebuilt.table());
    }

    #[test]
    fn cost_tracks_inference_volume() {
        let task = load_clean("mnist", SizeScale::Tiny, 3);
        let zoo = zoo_for_task(&task, 4);
        let pricey = zoo.iter().find(|t| t.name() == "efficientnet-b7").unwrap();
        let cheap = zoo.iter().find(|t| t.name() == "raw").unwrap();
        let mut arm_pricey = TransformationArm::new(pricey.as_ref(), &task, Metric::SquaredEuclidean, 16);
        let mut arm_cheap = TransformationArm::new(cheap.as_ref(), &task, Metric::SquaredEuclidean, 16);
        arm_pricey.pull();
        arm_cheap.pull();
        assert!(arm_pricey.simulated_cost() > arm_cheap.simulated_cost());
        assert!(arm_pricey.cost_per_pull() > 0.0);
    }

    #[test]
    fn pulling_an_exhausted_arm_is_a_noop() {
        let task = load_clean("sst2", SizeScale::Tiny, 5);
        let zoo = zoo_for_task(&task, 6);
        let mut arm = TransformationArm::new(zoo[0].as_ref(), &task, Metric::Cosine, task.train.len());
        let first = arm.pull();
        assert!(arm.exhausted());
        let again = arm.pull();
        assert_eq!(first, again);
        assert_eq!(arm.pulls(), 1);
    }
}
