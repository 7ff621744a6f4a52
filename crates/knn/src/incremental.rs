//! The incremental top-k successor state (Section V of the paper,
//! "Efficient Incremental Execution", generalised from 1NN to top-k).
//!
//! Snoopy's systems trick is that the feasibility study is *incremental*:
//! successive-halving arm pulls extend a kNN state instead of recomputing
//! it, and label-cleaning steps relabel in place with an `O(test)` error
//! refresh. [`IncrementalTopK`] is the one type that carries that state for
//! every consumer — the bandit loop's streamed arm evaluation, the cleaning
//! loop's real-time re-checks, and the estimator pipeline's shared
//! [`NeighborTable`] — replacing the three overlapping predecessors
//! (`StreamedOneNn`, `IncrementalOneNn`, and per-call table builds).
//!
//! Three mutations, three cost classes:
//!
//! * **Train-row append** ([`IncrementalTopK::append`]) folds a batch of new
//!   training rows into every query's bounded top-k state through the tiled
//!   [`EvalEngine`] — `O(batch × queries)` kernel work, never a rebuild of
//!   what earlier batches already paid for. The state retains only labels
//!   and heaps (plus the window's rows once eviction is enabled).
//! * **Relabel** ([`IncrementalTopK::relabel_train`] /
//!   [`IncrementalTopK::relabel_test`] / [`IncrementalTopK::set_labels`])
//!   touches no features: cleaning never moves a neighbour, so the 1NN
//!   error ([`IncrementalTopK::error`]) and the k-prefix majority-vote
//!   error ([`IncrementalTopK::knn_error`]) refresh in one `O(test)` pass —
//!   the paper's "0.2 ms for 10 K test / 50 K training samples" real-time
//!   feedback, now for any `k ≤` the state's capacity.
//! * **Row eviction** ([`IncrementalTopK::evict_oldest`], opt-in via
//!   [`IncrementalTopK::with_eviction`]) ages the oldest rows out of a
//!   sliding window. A bounded top-k cannot pop a member without backfill,
//!   so an eviction-enabled state keeps a **`k + slack` admission buffer**
//!   per query and tracks, per query, the *certified-exact prefix length*
//!   `valid` of that buffer. The invariant: the first `valid` buffer entries
//!   are exactly the top-`valid` of the surviving window, because every row
//!   ever refused or ejected by a full buffer was lexicographically worse
//!   than the buffer's worst at that moment (which only improves during
//!   appends), and eviction only removes entries. A pure append re-certifies
//!   the whole buffer only when the pre-append buffer was untainted **and**
//!   full (or held the entire window): a fully-certified full buffer is the
//!   exact top-`(k + slack)` of the window, so every absent window row ranks
//!   behind all of its members and can never climb into the refilled prefix.
//!   After a partial eviction drain the buffer is short, and rows it refused
//!   earlier were only ever compared against the *old full* buffer — they may
//!   beat freshly appended rows, so the certified prefix must stay at its
//!   pre-append length until a drain-triggered re-scan restores it. An
//!   eviction shrinks
//!   `valid` by the members it removed from the certified prefix. Only when
//!   a query's certified prefix drops below `min(k, window)` — its buffer
//!   *drained* — is that one query re-scanned against the surviving window:
//!   eviction costs `O(buffers) + O(affected queries × window)`, never a
//!   full rebuild.
//!
//! The state is bit-identical to a cold build at every point: after any
//! sequence of appends, [`IncrementalTopK::table`] equals
//! [`EvalEngine::topk`] over the consumed prefix (pinned by
//! `tests/proptest_incremental.rs` across metrics, `k`, batch shapes, and
//! interleaved relabels), because every distance flows through the same
//! [`MetricKernel`] expressions and the same lexicographic
//! `(distance, index)` admission as the cold path. With eviction the same
//! contract holds at every *window position*: the k-prefix table equals a
//! cold fold over the surviving window at its global offset (pinned by
//! `tests/proptest_eviction.rs`, including the buffer-drain re-scan path).

use crate::engine::{EvalEngine, NeighborTable, TopKState};
use crate::kernel::MetricKernel;
use crate::metric::Metric;
use snoopy_linalg::{DatasetView, Matrix};

/// What one [`IncrementalTopK::evict_oldest`] call did: how many rows left
/// the window and how many queries' admission buffers drained below
/// `min(k, window)` and were re-scanned. The re-scan count is the cost
/// driver — eviction is `O(buffers + affected_queries × window)`, never a
/// rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictReport {
    /// Rows actually evicted (requests are clamped to the window).
    pub rows_evicted: usize,
    /// Queries whose certified prefix drained and were re-scanned against
    /// the surviving window.
    pub affected_queries: usize,
}

/// The incremental top-k successor state: one bounded per-query top-k heap
/// per test/eval row, append-able batch by batch and relabel-able in place.
/// See the [module docs](self) for the design and cost model.
#[derive(Debug, Clone)]
pub struct IncrementalTopK {
    query_features: Matrix,
    query_labels: Vec<u32>,
    k: usize,
    engine: EvalEngine,
    /// Query-side norm cache bound once at construction; the train side is
    /// re-bound per appended batch (allocation reused).
    kernel: MetricKernel,
    /// One bounded top-k state per query, ascending `(distance, index)`.
    states: Vec<TopKState>,
    /// Labels of every consumed training row, indexed globally.
    train_labels: Vec<u32>,
    /// Error after each completed append: `(consumed rows, 1NN error)`.
    curve: Vec<(usize, f64)>,
    /// Query–row distance pairs folded so far — the state's true incremental
    /// cost (an append adds `batch × queries`, a drain re-scan `affected ×
    /// window`). This is what a bandit arm reports to the strategies
    /// instead of a rebuild-shaped estimate.
    folded_pairs: u64,
    /// `1 + max label ever appended or relabelled in` — sizes the vote
    /// buffer so [`IncrementalTopK::knn_error`] never scans the label
    /// arrays. Only grows; an oversized buffer cannot change a vote.
    label_bound: u32,
    /// Whether eviction is enabled ([`IncrementalTopK::with_eviction`]).
    eviction: bool,
    /// Extra admission-buffer capacity per query beyond `k` — buffers hold
    /// up to `k + slack` hits so evictions backfill from the slack tail.
    slack: usize,
    /// Global index of the first surviving training row; rows
    /// `[window_start, consumed)` form the window.
    window_start: usize,
    /// Per-query certified-exact prefix length of the admission buffer (see
    /// the [module docs](self) invariant). Empty unless eviction is enabled.
    valid: Vec<usize>,
    /// Retained copy of the surviving window's feature rows (append order,
    /// row 0 = global row `window_start`) — the raw material of
    /// affected-query re-scans. Empty unless eviction is enabled.
    window: Vec<f32>,
}

impl IncrementalTopK {
    /// Creates an empty state for a fixed test/eval split, retaining the
    /// best `k` neighbours per query (`k` clamped to ≥ 1).
    ///
    /// # Panics
    /// Panics if the split is empty or features/labels disagree.
    pub fn new(query_features: Matrix, query_labels: Vec<u32>, metric: Metric, k: usize) -> Self {
        assert_eq!(query_features.rows(), query_labels.len(), "query feature/label mismatch");
        assert!(!query_labels.is_empty(), "the incremental state needs a non-empty query split");
        let k = k.max(1);
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_queries(query_features.view());
        let label_bound = query_labels.iter().copied().max().unwrap_or(0).saturating_add(1);
        Self {
            states: vec![TopKState::new(k); query_labels.len()],
            query_features,
            query_labels,
            k,
            engine: EvalEngine::default(),
            kernel,
            train_labels: Vec::new(),
            curve: Vec::new(),
            folded_pairs: 0,
            label_bound,
            eviction: false,
            slack: 0,
            window_start: 0,
            valid: Vec::new(),
            window: Vec::new(),
        }
    }

    /// Enables row eviction with `slack` extra admission-buffer slots per
    /// query (buffers hold up to `k + slack` hits; larger slack absorbs more
    /// evictions before a query's buffer drains and forces a re-scan). The
    /// state retains a copy of the surviving window's rows for
    /// affected-query re-scans.
    ///
    /// # Panics
    /// Panics if any rows were already appended — the window must be
    /// retained from the first row.
    pub fn with_eviction(mut self, slack: usize) -> Self {
        assert_eq!(self.consumed(), 0, "enable eviction before the first append");
        self.eviction = true;
        self.slack = slack;
        for s in &mut self.states {
            s.reset(self.k + slack);
        }
        self.valid = vec![0; self.states.len()];
        self
    }

    /// Cold full build — [`IncrementalTopK::new`] over the test split
    /// followed by one [`IncrementalTopK::append`] of the whole training
    /// split.
    pub fn build<'a>(
        train_features: impl Into<DatasetView<'a>>,
        train_labels: &[u32],
        test_features: impl Into<DatasetView<'a>>,
        test_labels: &[u32],
        metric: Metric,
        k: usize,
    ) -> Self {
        let mut state = Self::new(test_features.into().to_matrix(), test_labels.to_vec(), metric, k);
        state.append(train_features.into(), train_labels);
        state
    }

    /// Replaces the evaluation engine's scan geometry (block and tile
    /// sizes); results are bit-identical for every geometry.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The metric the state evaluates.
    pub fn metric(&self) -> Metric {
        self.kernel.metric()
    }

    /// The per-query neighbour capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of training rows consumed so far.
    pub fn consumed(&self) -> usize {
        self.train_labels.len()
    }

    /// Number of query (test/eval) rows.
    pub fn test_len(&self) -> usize {
        self.query_labels.len()
    }

    /// The recorded convergence curve: `(consumed rows, 1NN error)` after
    /// every append.
    pub fn curve(&self) -> &[(usize, f64)] {
        &self.curve
    }

    /// Query–row distance pairs folded so far — the true incremental kernel
    /// cost of this state (monotone; an append adds `batch × queries`).
    pub fn folded_pairs(&self) -> u64 {
        self.folded_pairs
    }

    /// Current (possibly cleaned) training labels, global index order
    /// (evicted rows' labels are retained — globally indexed, never
    /// consulted again).
    pub fn train_labels(&self) -> &[u32] {
        &self.train_labels
    }

    /// Extra admission-buffer slots per query beyond `k` (0 unless eviction
    /// is enabled).
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Global index of the first surviving training row — rows
    /// `[window_start, consumed)` form the current window.
    pub fn window_start(&self) -> usize {
        self.window_start
    }

    /// Number of surviving training rows in the window (equals
    /// [`IncrementalTopK::consumed`] until the first eviction).
    pub fn window_len(&self) -> usize {
        self.train_labels.len() - self.window_start
    }

    /// Appends one batch of training rows whose global indices start at
    /// [`IncrementalTopK::consumed`], folding them into every query's top-k
    /// state — `O(batch × queries)` kernel work — and records the new 1NN
    /// error on the curve. Returns the updated error.
    ///
    /// An empty batch is a complete no-op (no curve point, no counters) —
    /// it returns the current error unchanged.
    ///
    /// # Panics
    /// Panics on feature/label count or dimensionality mismatches.
    pub fn append<'b>(&mut self, batch_features: impl Into<DatasetView<'b>>, batch_labels: &[u32]) -> f64 {
        let batch = batch_features.into();
        assert_eq!(batch.rows(), batch_labels.len(), "batch feature/label mismatch");
        assert_eq!(
            batch.cols(),
            self.query_features.cols(),
            "batch dimensionality differs from the query split"
        );
        if batch.is_empty() {
            // A degenerate batch must not push a duplicate curve point.
            return self.error();
        }
        let offset = self.train_labels.len();
        // A pure append re-certifies the buffer only when it was untainted
        // (certified prefix == whole buffer) AND full — i.e. the exact
        // top-`k + slack` of the window, whose absent rows can never climb
        // into the refilled prefix — or held the entire window. A buffer left
        // short by a partial eviction drain keeps its prefix length: rows it
        // refused pre-drain were never compared against the fresh batch (see
        // the module invariant).
        let recertify: Vec<bool> = if self.eviction {
            let cap = self.k + self.slack;
            let window_before = self.train_labels.len() - self.window_start;
            self.window.extend_from_slice(batch.data());
            self.states
                .iter()
                .zip(&self.valid)
                .map(|(s, &v)| {
                    let len = s.hits().len();
                    v == len && (len == cap || len == window_before)
                })
                .collect()
        } else {
            Vec::new()
        };
        self.kernel.bind_train(batch);
        self.engine.update_topk(self.query_features.view(), &self.kernel, batch, offset, &mut self.states);
        self.folded_pairs += (batch.rows() * self.query_features.rows()) as u64;
        if self.eviction {
            for (q, ok) in recertify.iter().enumerate() {
                if *ok {
                    self.valid[q] = self.states[q].hits().len();
                }
            }
        }
        self.train_labels.extend_from_slice(batch_labels);
        for &y in batch_labels {
            self.label_bound = self.label_bound.max(y.saturating_add(1));
        }
        let err = self.error();
        self.curve.push((self.train_labels.len(), err));
        err
    }

    /// Evicts the `rows` oldest surviving training rows from the window
    /// (clamped to the window size), popping them out of every query's
    /// admission buffer with backfill from the slack tail. Only queries
    /// whose certified prefix drains below `min(k, window)` are re-scanned
    /// against the surviving window, so the cost is `O(buffers)` plus
    /// `O(affected queries × window scan)`, never a rebuild.
    ///
    /// Evicted rows' labels stay in [`IncrementalTopK::train_labels`] (they
    /// are globally indexed and never consulted again); all error reads and
    /// [`IncrementalTopK::table`] reflect only the surviving window.
    ///
    /// # Panics
    /// Panics unless [`IncrementalTopK::with_eviction`] enabled eviction.
    pub fn evict_oldest(&mut self, rows: usize) -> EvictReport {
        assert!(self.eviction, "call with_eviction(slack) before evicting rows");
        let rows = rows.min(self.consumed() - self.window_start);
        if rows == 0 {
            return EvictReport::default();
        }
        let new_start = self.window_start + rows;
        let cols = self.query_features.cols();
        self.window.drain(0..rows * cols);
        let need = self.k.min(self.consumed() - new_start);
        let mut affected = Vec::new();
        for (q, s) in self.states.iter_mut().enumerate() {
            let (removed_prefix, _) = s.evict_below(new_start, self.valid[q]);
            self.valid[q] -= removed_prefix;
            if self.valid[q] < need {
                affected.push(q);
            }
        }
        self.window_start = new_start;
        if !affected.is_empty() {
            self.rescan_queries(&affected);
        }
        EvictReport { rows_evicted: rows, affected_queries: affected.len() }
    }

    /// Rebuilds the admission buffers of the given queries from the
    /// surviving window with one exhaustive fold. The rebuilt buffers are
    /// exact top-`min(k + slack, window)` — certified in full.
    fn rescan_queries(&mut self, affected: &[usize]) {
        let cols = self.query_features.cols();
        let mut qdata = Vec::with_capacity(affected.len() * cols);
        for &q in affected {
            qdata.extend_from_slice(self.query_features.row(q));
        }
        let queries = DatasetView::from_raw(&qdata, affected.len(), cols);
        let mut sub = vec![TopKState::new(self.k + self.slack); affected.len()];
        // An affected query needs at least one row, so the window is never
        // empty here.
        let window = DatasetView::from_raw(&self.window, self.window_len(), cols);
        let mut kernel = MetricKernel::new(self.metric());
        kernel.bind_queries(queries);
        kernel.bind_train(window);
        self.engine.update_topk(queries, &kernel, window, self.window_start, &mut sub);
        self.folded_pairs += (window.rows() * affected.len()) as u64;
        for (i, &q) in affected.iter().enumerate() {
            self.valid[q] = sub[i].hits().len();
            self.states[q] = std::mem::replace(&mut sub[i], TopKState::new(1));
        }
    }

    /// Updates the label of a training row (e.g. after cleaning). Features
    /// are untouched, so no neighbour moves — the next error read is a pure
    /// `O(test)` refresh.
    pub fn relabel_train(&mut self, index: usize, new_label: u32) {
        self.train_labels[index] = new_label;
        self.label_bound = self.label_bound.max(new_label.saturating_add(1));
    }

    /// Updates the label of a test/eval row.
    pub fn relabel_test(&mut self, index: usize, new_label: u32) {
        self.query_labels[index] = new_label;
        self.label_bound = self.label_bound.max(new_label.saturating_add(1));
    }

    /// Synchronises all labels at once (e.g. after a cleaning round applied
    /// to the underlying dataset) and returns the refreshed 1NN error.
    ///
    /// # Panics
    /// Panics if either label count changed.
    pub fn set_labels(&mut self, train_labels: &[u32], test_labels: &[u32]) -> f64 {
        assert_eq!(train_labels.len(), self.train_labels.len(), "train label count changed");
        assert_eq!(test_labels.len(), self.query_labels.len(), "test label count changed");
        self.train_labels.copy_from_slice(train_labels);
        self.query_labels.copy_from_slice(test_labels);
        for &y in train_labels.iter().chain(test_labels) {
            self.label_bound = self.label_bound.max(y.saturating_add(1));
        }
        self.error()
    }

    /// Current 1NN error under the current labels — one `O(test)` pass.
    /// Before any append every prediction counts as wrong.
    pub fn error(&self) -> f64 {
        let wrong = self
            .states
            .iter()
            .zip(&self.query_labels)
            .filter(|(s, &y)| s.hits().first().is_none_or(|h| self.train_labels[h.index] != y))
            .count();
        wrong as f64 / self.query_labels.len() as f64
    }

    /// Current kNN majority-vote error over the first `k` stored neighbours
    /// of every query (`k` clamped to the stored count; vote ties resolve to
    /// the smallest class id) — the k-prefix generalisation of the 1NN
    /// refresh, still `O(test · k)` per read. Identical to
    /// [`NeighborTable::knn_error`] on a snapshot of this state.
    ///
    /// # Panics
    /// Panics if a consulted training label is `≥ num_classes` and was never
    /// seen by an append/relabel (the vote buffer is sized by the larger of
    /// the two).
    pub fn knn_error(&self, k: usize, num_classes: usize) -> f64 {
        if self.train_labels.is_empty() {
            return 1.0;
        }
        let mut votes = vec![0usize; num_classes.max(self.label_bound as usize).max(1)];
        let wrong = self
            .states
            .iter()
            .zip(&self.query_labels)
            .filter(|(s, &y)| {
                votes.iter_mut().for_each(|v| *v = 0);
                let hits = s.hits();
                // Clamp the vote prefix to the state's capacity `k` (an
                // eviction slack tail is uncertified and must never vote)
                // and to the rows actually stored — early in a stream a
                // buffer holds fewer than `k` hits.
                for hit in &hits[..k.min(self.k).min(hits.len())] {
                    votes[self.train_labels[hit.index] as usize] += 1;
                }
                let mut best = 0usize;
                for (c, &v) in votes.iter().enumerate() {
                    if v > votes[best] {
                        best = c;
                    }
                }
                best as u32 != y
            })
            .count();
        wrong as f64 / self.query_labels.len() as f64
    }

    /// Snapshots the state into a query-major [`NeighborTable`] — the
    /// neighbour handshake every downstream consumer (the five Bayes-error
    /// estimators included) speaks. Bit-identical to [`EvalEngine::topk`]
    /// over the consumed rows; empty (`k() == 0`) before any append. With
    /// eviction the snapshot is the certified `min(k, window)`-prefix of
    /// every admission buffer — bit-identical to a cold fold over the
    /// surviving window at its global offset.
    pub fn table(&self) -> NeighborTable {
        if self.eviction {
            let per_query = self.k.min(self.consumed() - self.window_start);
            NeighborTable::from_state_prefixes(&self.states, per_query)
        } else {
            NeighborTable::from_states(&self.states)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceIndex;
    use crate::engine::knn_reference;
    use snoopy_linalg::LabeledView;

    /// A two-blob labelled task split into train/test, built on the shared
    /// `snoopy-testutil` blob fixture (rows alternate blobs round-robin, so
    /// the label is the row's parity).
    fn toy_task(n_train: usize) -> (Matrix, Vec<u32>, Matrix, Vec<u32>) {
        let n_test = 60;
        let all = snoopy_testutil::blob_cloud(77, n_train + n_test, 2, 2, 4.0, 0.3);
        let (train, test) = all.view().split_at(n_train);
        let train_labels = (0..n_train).map(|i| (i % 2) as u32).collect();
        let test_labels = (0..n_test).map(|i| ((n_train + i) % 2) as u32).collect();
        (train.to_matrix(), train_labels, test.to_matrix(), test_labels)
    }

    fn noisy_task() -> (Matrix, Vec<u32>, Vec<u32>, Matrix, Vec<u32>, Vec<u32>) {
        // Two clusters; 20% of training labels and 10% of test labels flipped.
        let n = 100;
        let mut train_rows = Vec::new();
        let mut clean_train = Vec::new();
        for i in 0..n {
            let c = (i % 2) as u32;
            let base = if c == 0 { 0.0 } else { 5.0 };
            train_rows.push(vec![base + (i as f32 * 0.17).sin() * 0.3, (i as f32 * 0.31).cos() * 0.3]);
            clean_train.push(c);
        }
        let mut noisy_train = clean_train.clone();
        for i in (0..n).step_by(5) {
            noisy_train[i] = 1 - noisy_train[i];
        }
        let m = 40;
        let mut test_rows = Vec::new();
        let mut clean_test = Vec::new();
        for i in 0..m {
            let c = (i % 2) as u32;
            let base = if c == 0 { 0.0 } else { 5.0 };
            test_rows.push(vec![base + (i as f32 * 0.41).sin() * 0.3, (i as f32 * 0.13).cos() * 0.3]);
            clean_test.push(c);
        }
        let mut noisy_test = clean_test.clone();
        for i in (0..m).step_by(10) {
            noisy_test[i] = 1 - noisy_test[i];
        }
        (
            Matrix::from_rows(&train_rows),
            noisy_train,
            clean_train,
            Matrix::from_rows(&test_rows),
            noisy_test,
            clean_test,
        )
    }

    #[test]
    fn streaming_matches_full_index_at_every_prefix() {
        let (train_x, train_y, test_x, test_y) = toy_task(200);
        let train = LabeledView::new(&train_x, &train_y).with_classes(2);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 1);
        let mut consumed = 0;
        for batch in train.batches(50) {
            let err = state.append(batch.features(), batch.labels());
            consumed += batch.len();
            let full = BruteForceIndex::from_view(train.prefix(consumed), Metric::SquaredEuclidean)
                .one_nn_error(&test_x, &test_y);
            assert!((err - full).abs() < 1e-12, "prefix {consumed}: incremental {err} vs full {full}");
        }
        assert_eq!(state.consumed(), 200);
        assert_eq!(state.curve().len(), 4);
        assert_eq!(state.folded_pairs(), 200 * 60);
    }

    #[test]
    fn error_before_any_append_is_one_and_table_is_empty() {
        let (_, _, test_x, test_y) = toy_task(10);
        let state = IncrementalTopK::new(test_x, test_y, Metric::Euclidean, 3);
        assert_eq!(state.error(), 1.0);
        assert_eq!(state.knn_error(3, 2), 1.0);
        assert_eq!(state.table().k(), 0, "empty before any append");
    }

    #[test]
    fn appended_table_equals_cold_topk_for_every_k() {
        let (train_x, train_y, test_x, test_y) = toy_task(90);
        for metric in Metric::all() {
            for k in [1usize, 3, 10, 90] {
                let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), metric, k);
                for batch in LabeledView::new(&train_x, &train_y).batches(27) {
                    state.append(batch.features(), batch.labels());
                }
                let cold = EvalEngine::default().topk(train_x.view(), test_x.view(), metric, k);
                assert_eq!(state.table(), cold, "metric {} k {k}", metric.name());
                assert_eq!(state.table(), knn_reference(train_x.view(), test_x.view(), metric, k));
            }
        }
    }

    #[test]
    fn incremental_equals_full_recompute_after_each_cleaning_step() {
        let (tx, ty, clean_ty, qx, qy, clean_qy) = noisy_task();
        let mut state = IncrementalTopK::build(&tx, &ty, &qx, &qy, Metric::SquaredEuclidean, 3);
        let mut cur_ty = ty.clone();
        let mut cur_qy = qy.clone();
        // Clean one dirty train label and one dirty test label at a time; the
        // 1NN error AND the k=3 vote error must track a cold rebuild.
        for i in 0..cur_ty.len() {
            if cur_ty[i] != clean_ty[i] {
                cur_ty[i] = clean_ty[i];
                state.relabel_train(i, clean_ty[i]);
                let cold = BruteForceIndex::new(&tx, &cur_ty, 2, Metric::SquaredEuclidean);
                let full = cold.one_nn_error(&qx, &cur_qy);
                assert!((state.error() - full).abs() < 1e-12, "train clean step {i}");
                let full_k3 = cold.knn_error(&qx, &cur_qy, 3);
                assert!((state.knn_error(3, 2) - full_k3).abs() < 1e-12, "train clean step {i} (k=3)");
            }
        }
        for i in 0..cur_qy.len() {
            if cur_qy[i] != clean_qy[i] {
                cur_qy[i] = clean_qy[i];
                state.relabel_test(i, clean_qy[i]);
                let full = BruteForceIndex::new(&tx, &cur_ty, 2, Metric::SquaredEuclidean)
                    .one_nn_error(&qx, &cur_qy);
                assert!((state.error() - full).abs() < 1e-12, "test clean step {i}");
            }
        }
        // Fully cleaned, well separated clusters: error is zero.
        assert_eq!(state.error(), 0.0);
        assert_eq!(state.knn_error(3, 2), 0.0);
    }

    #[test]
    fn batch_relabels_and_set_labels_apply_all_updates() {
        let (tx, ty, clean_ty, qx, qy, clean_qy) = noisy_task();
        let mut state = IncrementalTopK::build(&tx, &ty, &qx, &qy, Metric::SquaredEuclidean, 1);
        let before = state.error();
        for (i, (&y, &clean)) in ty.iter().zip(&clean_ty).enumerate() {
            if y != clean {
                state.relabel_train(i, clean);
            }
        }
        let full = BruteForceIndex::new(&tx, &clean_ty, 2, Metric::SquaredEuclidean).one_nn_error(&qx, &qy);
        assert!((state.error() - full).abs() < 1e-12);
        state.set_labels(&clean_ty, &clean_qy);
        assert!(state.error() < before, "cleaning labels reduces error on average");
    }

    #[test]
    fn build_matches_batched_appends() {
        let (tx, ty, _, qx, qy, _) = noisy_task();
        let built = IncrementalTopK::build(&tx, &ty, &qx, &qy, Metric::SquaredEuclidean, 2);
        let mut appended = IncrementalTopK::new(qx.clone(), qy.clone(), Metric::SquaredEuclidean, 2);
        let view = tx.view();
        appended.append(view.slice_rows(0, 60), &ty[..60]);
        appended.append(view.slice_rows(60, tx.rows()), &ty[60..]);
        assert_eq!(built.table(), appended.table());
        assert_eq!(built.error().to_bits(), appended.error().to_bits());
    }

    #[test]
    fn nearest_indices_are_global() {
        let (train_x, train_y, test_x, test_y) = toy_task(100);
        let mut state = IncrementalTopK::new(test_x, test_y, Metric::SquaredEuclidean, 1);
        let view = train_x.view();
        state.append(view.slice_rows(0, 50), &train_y[..50]);
        state.append(view.slice_rows(50, 100), &train_y[50..]);
        let table = state.table();
        let idx: Vec<usize> = (0..table.num_queries()).map(|q| table.neighbors(q)[0].index).collect();
        assert!(idx.iter().all(|&i| i < 100));
        assert!(idx.iter().any(|&i| i >= 50), "some neighbours should come from the second batch");
    }

    #[test]
    fn cosine_appends_match_full_recompute() {
        let (train_x, train_y, test_x, test_y) = toy_task(90);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::Cosine, 1);
        for batch in LabeledView::new(&train_x, &train_y).batches(27) {
            state.append(batch.features(), batch.labels());
        }
        let full = BruteForceIndex::new(&train_x, &train_y, 2, Metric::Cosine).one_nn_error(&test_x, &test_y);
        assert!((state.error() - full).abs() < 1e-12);
    }

    #[test]
    fn knn_error_matches_table_snapshot_votes() {
        let (train_x, train_y, test_x, test_y) = toy_task(70);
        let mut state = IncrementalTopK::new(test_x, test_y.clone(), Metric::SquaredEuclidean, 5);
        state.append(train_x.view(), &train_y);
        for k in [1usize, 3, 5, 9] {
            let via_table = state.table().knn_error(k, &train_y, &test_y, 2);
            assert_eq!(state.knn_error(k, 2).to_bits(), via_table.to_bits(), "k {k}");
        }
    }

    /// Cold fold over `train[start..end)` at global offset `start` — the
    /// reference every window position must match bit for bit.
    fn cold_window_table(
        train: DatasetView<'_>,
        test_x: &Matrix,
        metric: Metric,
        k: usize,
        start: usize,
        end: usize,
    ) -> NeighborTable {
        let window = train.slice_rows(start, end);
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_queries(test_x.view());
        kernel.bind_train(window);
        let mut states = vec![TopKState::new(k); test_x.rows()];
        EvalEngine::default().update_topk(test_x.view(), &kernel, window, start, &mut states);
        NeighborTable::from_states(&states)
    }

    #[test]
    fn empty_batch_append_is_a_noop() {
        let (train_x, train_y, test_x, test_y) = toy_task(80);
        let mut state = IncrementalTopK::new(test_x, test_y, Metric::SquaredEuclidean, 3);
        state.append(train_x.view(), &train_y);
        let curve_len = state.curve().len();
        let pairs = state.folded_pairs();
        let err = state.error();
        let empty = Matrix::zeros(0, 2);
        let err2 = state.append(empty.view(), &[]);
        assert_eq!(err2.to_bits(), err.to_bits(), "an empty append returns the current error");
        assert_eq!(state.curve().len(), curve_len, "no duplicate curve point");
        assert_eq!(state.folded_pairs(), pairs);
        assert_eq!(state.consumed(), 80);
    }

    #[test]
    fn knn_error_clamps_vote_prefix_to_capacity_and_consumed() {
        let (train_x, train_y, test_x, test_y) = toy_task(40);
        let view = train_x.view();
        // k > consumed early in the stream: the vote covers only stored rows.
        let mut early = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 5);
        early.append(view.slice_rows(0, 2), &train_y[..2]);
        let via_table = early.table().knn_error(5, &train_y[..2], &test_y, 2);
        assert_eq!(early.knn_error(5, 2).to_bits(), via_table.to_bits());
        // An eviction slack tail must never vote: `k_arg > k` reads exactly
        // the certified k-prefix, matching the table snapshot.
        let mut state =
            IncrementalTopK::new(test_x, test_y.clone(), Metric::SquaredEuclidean, 3).with_eviction(4);
        state.append(view, &train_y);
        state.evict_oldest(5);
        let expect = state.table().knn_error(7, &train_y, &test_y, 2);
        assert_eq!(state.knn_error(7, 2).to_bits(), expect.to_bits(), "slack tail voted");
        assert_eq!(state.knn_error(7, 2).to_bits(), state.knn_error(3, 2).to_bits());
    }

    #[test]
    fn eviction_matches_cold_fold_at_every_window_position() {
        let (train_x, train_y, test_x, test_y) = toy_task(180);
        let view = train_x.view();
        // slack 0 drains buffers on almost every eviction (the re-scan
        // path); larger slacks absorb evictions in the buffer.
        for slack in [0usize, 2, 6] {
            let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 3)
                .with_eviction(slack);
            let mut consumed = 0;
            while consumed < 180 {
                let end = (consumed + 30).min(180);
                state.append(view.slice_rows(consumed, end), &train_y[consumed..end]);
                consumed = end;
                if state.window_len() > 60 {
                    let report = state.evict_oldest(30);
                    assert_eq!(report.rows_evicted, 30);
                }
                let start = state.window_start();
                let cold = cold_window_table(view, &test_x, Metric::SquaredEuclidean, 3, start, consumed);
                assert_eq!(state.table(), cold, "slack {slack} window [{start}, {consumed})");
                let cold_err = cold.one_nn_error(&train_y[..consumed], &test_y);
                assert_eq!(state.error().to_bits(), cold_err.to_bits());
                let cold_k3 = cold.knn_error(3, &train_y[..consumed], &test_y, 2);
                assert_eq!(state.knn_error(3, 2).to_bits(), cold_k3.to_bits());
            }
            assert!(state.window_start() > 0, "the window must actually have slid");
            // Drain the rest: an empty window predicts nothing, and evicting
            // from it is a no-op.
            state.evict_oldest(state.window_len());
            assert_eq!(state.window_len(), 0);
            assert_eq!(state.error(), 1.0);
            assert_eq!(state.table().k(), 0);
            assert_eq!(state.evict_oldest(10), EvictReport::default());
        }
    }

    #[test]
    #[should_panic(expected = "with_eviction")]
    fn evicting_without_enabling_eviction_panics() {
        let (train_x, train_y, test_x, test_y) = toy_task(20);
        let mut state = IncrementalTopK::new(test_x, test_y, Metric::SquaredEuclidean, 1);
        state.append(train_x.view(), &train_y);
        state.evict_oldest(5);
    }

    #[test]
    #[should_panic(expected = "batch dimensionality")]
    fn dimension_mismatch_panics() {
        let (_, _, test_x, test_y) = toy_task(10);
        let mut state = IncrementalTopK::new(test_x, test_y, Metric::SquaredEuclidean, 1);
        state.append(&Matrix::zeros(5, 7), &[0, 1, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "label count changed")]
    fn set_labels_rejects_resized_splits() {
        let (train_x, train_y, test_x, test_y) = toy_task(20);
        let mut state = IncrementalTopK::new(test_x, test_y, Metric::SquaredEuclidean, 1);
        state.append(train_x.view(), &train_y);
        let _ = state.set_labels(&train_y[..10], &[0; 60]);
    }
}
