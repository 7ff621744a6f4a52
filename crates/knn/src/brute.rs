//! Exact brute-force k-nearest-neighbour index over a borrowed
//! [`LabeledView`]. Every distance computation — single queries, parallel
//! batch queries, kNN classifier error, and the leave-one-out error — routes
//! through the shared [`EvalEngine`] top-k kernel and its [`NeighborTable`]
//! results, so tie handling (lowest global index wins on equal distances)
//! and floating-point behaviour are identical across all of them. Selecting
//! [`EvalBackend::Clustered`] via [`BruteForceIndex::with_backend`] swaps
//! the scan for the exact-pruned [`ClusteredIndex`] — same handshake, same
//! bits, less work.
//!
//! With at most a few tens of thousands of samples per task replica and
//! moderate embedding dimensions, exact brute force in `O(n · d)` per query is
//! both simple and fast enough (the paper's own system computes exact 1NN on
//! GPU). The index borrows its training data — building one never clones a
//! feature matrix — and binds its [`MetricKernel`] train-side norm cache
//! once at construction, so batch queries pay one query-side norm pass and
//! nothing per query.

use crate::clustered::{ClusteredIndex, EvalBackend};
use crate::engine::{EvalEngine, NearestHit, NeighborTable, TopKState};
use crate::kernel::MetricKernel;
use crate::metric::Metric;
use snoopy_linalg::{DatasetView, LabeledView, Matrix};

/// A fitted brute-force index over a borrowed labelled training set.
#[derive(Debug, Clone)]
pub struct BruteForceIndex<'a> {
    view: LabeledView<'a>,
    /// The metric kernel with its train-side norm cache bound once to the
    /// indexed rows; query paths clone it and bind the query side per call
    /// (cloning copies one `f32` per training row — noise next to the
    /// `O(n·d)` scan it precedes).
    kernel: MetricKernel,
    /// Vote-vector size for majority voting: max(declared classes, labels
    /// present). Computed once — scanning labels per query is a hot-path tax.
    vote_classes: usize,
    engine: EvalEngine,
    backend: EvalBackend,
    /// Built once by [`BruteForceIndex::with_backend`] when the backend
    /// resolves to clustering; all query paths then route through it
    /// (results stay bit-identical to the exhaustive engine).
    clustered: Option<ClusteredIndex>,
}

/// One retrieved neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the training set.
    pub index: usize,
    /// Dissimilarity to the query.
    pub distance: f32,
    /// Training label of the neighbour.
    pub label: u32,
}

impl<'a> BruteForceIndex<'a> {
    /// Builds an index borrowing `features` (one sample per row) and `labels`.
    ///
    /// # Panics
    /// Panics if the number of rows and labels differ or the index is empty.
    pub fn new(features: &'a Matrix, labels: &'a [u32], num_classes: usize, metric: Metric) -> Self {
        Self::from_view(LabeledView::new(features, labels).with_classes(num_classes), metric)
    }

    /// Builds an index from a shared labelled view (zero-copy).
    ///
    /// # Panics
    /// Panics if the view is empty.
    pub fn from_view(view: LabeledView<'a>, metric: Metric) -> Self {
        assert!(!view.is_empty(), "cannot build an empty index");
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_train(view.features());
        let vote_classes = view.num_classes().max(view.observed_classes());
        Self {
            view,
            kernel,
            vote_classes,
            engine: EvalEngine::parallel(),
            backend: EvalBackend::Exhaustive,
            clustered: None,
        }
    }

    /// Replaces the evaluation engine (e.g. to force a serial reference run).
    /// A clustered backend, if selected, inherits the new engine's shape.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        if let Some(ci) = self.clustered.as_mut() {
            ci.set_engine(engine);
        }
        self
    }

    /// Selects the evaluation backend. `Clustered` builds the coarse
    /// partition once, here; every subsequent query path (tables, batch
    /// queries, kNN error, leave-one-out) routes through the pruned index
    /// and returns bit-identical results to the exhaustive engine. Falls
    /// back to exhaustive for cosine (no triangle inequality).
    pub fn with_backend(mut self, backend: EvalBackend) -> Self {
        self.backend = backend;
        self.clustered = backend.resolve(self.len(), self.metric()).map(|(nlist, quantize)| {
            let index =
                ClusteredIndex::build_with_engine(self.view.features(), self.metric(), nlist, self.engine);
            if quantize {
                index.quantize()
            } else {
                index
            }
        });
        self
    }

    /// The backend selected at construction (`Exhaustive` by default).
    pub fn backend(&self) -> EvalBackend {
        self.backend
    }

    /// Number of indexed samples.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Whether the index is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// The metric used by the index.
    pub fn metric(&self) -> Metric {
        self.kernel.metric()
    }

    /// The labels of the indexed samples.
    pub fn labels(&self) -> &'a [u32] {
        self.view.labels()
    }

    /// The labelled view the index was built over.
    pub fn view(&self) -> LabeledView<'a> {
        self.view
    }

    fn hit_to_neighbor(&self, hit: NearestHit) -> Neighbor {
        if hit.index == usize::MAX {
            Neighbor { index: 0, distance: f32::INFINITY, label: 0 }
        } else {
            Neighbor { index: hit.index, distance: hit.distance, label: self.view.label(hit.index) }
        }
    }

    /// Top-`k` neighbour table for every row of `queries`, computed by the
    /// blocked chunk-parallel engine with the index's precomputed norm
    /// scratch. `k` is clamped to `[1, len]`; `k = 1` uses the flat
    /// one-slot-per-query layout (no per-query state allocation).
    pub fn neighbor_table<'q>(&self, queries: impl Into<DatasetView<'q>>, k: usize) -> NeighborTable {
        let queries = queries.into();
        let k = k.min(self.len()).max(1);
        if let Some(ci) = &self.clustered {
            return ci.topk(queries, k);
        }
        let mut kernel = self.kernel.clone();
        kernel.bind_queries(queries);
        if k == 1 {
            let mut best = vec![NearestHit::NONE; queries.rows()];
            self.engine.update_nearest(queries, &kernel, self.view.features(), 0, &mut best);
            NeighborTable::from_nearest(best)
        } else {
            let mut states = vec![TopKState::new(k); queries.rows()];
            self.engine.update_topk(queries, &kernel, self.view.features(), 0, &mut states, None);
            NeighborTable::from_states(&states)
        }
    }

    /// Finds the single nearest neighbour of `query`.
    pub fn query_1nn(&self, query: &[f32]) -> Neighbor {
        self.query_knn(query, 1)[0]
    }

    /// Finds the `k` nearest neighbours of `query`, ordered by increasing
    /// distance. `k` is clamped to the index size. Ties are deterministic:
    /// on equal distances the lowest training index wins — the same
    /// lexicographic `(distance, index)` rule as the engine's top-k kernel,
    /// which this routes through.
    pub fn query_knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let table = self.neighbor_table(DatasetView::from_row(query), k);
        table.neighbors(0).iter().map(|&h| self.hit_to_neighbor(h)).collect()
    }

    /// Majority-vote kNN prediction for `query`; vote ties resolve to the
    /// smallest class id among the tied classes (deterministic).
    pub fn predict_knn(&self, query: &[f32], k: usize) -> u32 {
        self.neighbor_table(DatasetView::from_row(query), k).vote(0, k, self.labels(), self.vote_classes)
    }

    /// 1NN predictions for every row of `queries`, computed by the parallel
    /// engine.
    pub fn predict_1nn_batch<'q>(&self, queries: impl Into<DatasetView<'q>>) -> Vec<u32> {
        self.nearest_neighbors_batch(queries).into_iter().map(|n| n.label).collect()
    }

    /// Nearest neighbour of every row of `queries`, computed by the blocked
    /// chunk-parallel engine (the `k = 1` neighbour table).
    pub fn nearest_neighbors_batch<'q>(&self, queries: impl Into<DatasetView<'q>>) -> Vec<Neighbor> {
        let table = self.neighbor_table(queries, 1);
        (0..table.num_queries()).map(|q| self.hit_to_neighbor(table.neighbors(q)[0])).collect()
    }

    /// kNN classifier error on a labelled query set (fraction of
    /// misclassified queries): one parallel top-k table pass, then a cheap
    /// serial vote.
    pub fn knn_error<'q>(&self, queries: impl Into<DatasetView<'q>>, query_labels: &[u32], k: usize) -> f64 {
        let queries = queries.into();
        assert_eq!(queries.rows(), query_labels.len(), "query feature/label mismatch");
        if query_labels.is_empty() {
            return 0.0;
        }
        self.neighbor_table(queries, k).knn_error(k, self.labels(), query_labels, self.vote_classes)
    }

    /// 1NN classifier error on a labelled query set.
    pub fn one_nn_error<'q>(&self, queries: impl Into<DatasetView<'q>>, query_labels: &[u32]) -> f64 {
        let queries = queries.into();
        assert_eq!(queries.rows(), query_labels.len(), "query feature/label mismatch");
        if query_labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict_1nn_batch(queries);
        let wrong = preds.iter().zip(query_labels).filter(|(p, y)| p != y).count();
        wrong as f64 / query_labels.len() as f64
    }

    /// 1NN classifier error on a labelled evaluation view.
    pub fn one_nn_error_view(&self, eval: LabeledView<'_>) -> f64 {
        self.one_nn_error(eval.features(), eval.labels())
    }

    /// Leave-one-out top-`k` neighbour table on the *training* set itself:
    /// each row's neighbour list excludes that row. One parallel
    /// self-excluding engine pass ([`EvalEngine::topk_loo`]),
    /// `O(n² / threads)`.
    pub fn leave_one_out_table(&self, k: usize) -> NeighborTable {
        if let Some(ci) = &self.clustered {
            return ci.topk_loo(self.view.features(), k);
        }
        self.engine.topk_loo(self.view.features(), self.metric(), k)
    }

    /// Leave-one-out 1NN error on the *training* set itself (each sample's
    /// nearest neighbour excludes itself). Used by estimators that do not have
    /// a held-out split.
    pub fn leave_one_out_error(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        self.leave_one_out_table(1).one_nn_error(self.labels(), self.labels())
    }
}

/// Convenience helper: 1NN error of `train` evaluated on `test`, zero-copy.
pub fn one_nn_error(
    train_x: &Matrix,
    train_y: &[u32],
    test_x: &Matrix,
    test_y: &[u32],
    num_classes: usize,
    metric: Metric,
) -> f64 {
    BruteForceIndex::new(train_x, train_y, num_classes, metric).one_nn_error(test_x, test_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters in 2D.
    fn clustered_data(n_per_class: usize) -> (Matrix, Vec<u32>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let wobble = (i % 7) as f32 * 0.01;
            rows.push(vec![0.0 + wobble, 0.0 - wobble]);
            labels.push(0);
            rows.push(vec![10.0 - wobble, 10.0 + wobble]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn one_nn_on_separated_clusters_is_perfect() {
        let (x, y) = clustered_data(50);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert_eq!(index.one_nn_error(&x, &y), 0.0);
        let query = [9.0f32, 9.5];
        assert_eq!(index.query_1nn(&query).label, 1);
    }

    #[test]
    fn index_borrows_rather_than_clones() {
        let (x, y) = clustered_data(10);
        let index = BruteForceIndex::from_view(LabeledView::new(&x, &y).with_classes(2), Metric::Cosine);
        // The indexed feature buffer is literally the caller's allocation.
        assert_eq!(index.view().features().data().as_ptr(), x.data().as_ptr());
        assert_eq!(index.len(), 20);
    }

    #[test]
    fn knn_returns_sorted_unique_neighbors() {
        let (x, y) = clustered_data(20);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::Euclidean);
        let neigh = index.query_knn(&[0.0, 0.0], 5);
        assert_eq!(neigh.len(), 5);
        for w in neigh.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        let mut idx: Vec<usize> = neigh.iter().map(|n| n.index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 5, "neighbours must be distinct");
    }

    #[test]
    fn k_is_clamped_and_majority_vote_works() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0]]);
        let y = vec![0, 0, 1];
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert_eq!(index.query_knn(&[0.0, 0.0], 10).len(), 3);
        assert_eq!(index.predict_knn(&[0.2, 0.0], 3), 0);
    }

    #[test]
    fn batch_matches_sequential() {
        let (x, y) = clustered_data(40);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        let queries = Matrix::from_rows(&[vec![1.0, 1.0], vec![9.0, 9.0], vec![4.9, 5.1], vec![0.0, 0.2]]);
        let batch = index.nearest_neighbors_batch(&queries);
        for (i, item) in batch.iter().enumerate() {
            let single = index.query_1nn(queries.row(i));
            assert_eq!(item.index, single.index);
            assert_eq!(item.label, single.label);
        }
    }

    #[test]
    fn knn_error_decreases_with_separation() {
        // Overlapping clusters give non-zero error; separated give zero.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            rows.push(vec![i as f32 * 0.01, 0.0]);
            labels.push(0);
            rows.push(vec![i as f32 * 0.01 + 0.005, 0.0]);
            labels.push(1);
        }
        let x = Matrix::from_rows(&rows);
        let index = BruteForceIndex::new(&x, &labels, 2, Metric::SquaredEuclidean);
        let overlapping_err = index.knn_error(&x, &labels, 3);
        assert!(overlapping_err > 0.2, "overlapping error {overlapping_err}");

        let (sx, sy) = clustered_data(30);
        let sep_index = BruteForceIndex::new(&sx, &sy, 2, Metric::SquaredEuclidean);
        assert_eq!(sep_index.knn_error(&sx, &sy, 3), 0.0);
    }

    #[test]
    fn leave_one_out_error_detects_label_noise() {
        let (x, mut y) = clustered_data(25);
        let index_clean = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert_eq!(index_clean.leave_one_out_error(), 0.0);
        drop(index_clean);
        // Flip a quarter of the labels: LOO error must rise.
        for i in (0..y.len()).step_by(4) {
            y[i] = 1 - y[i];
        }
        let index_noisy = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert!(index_noisy.leave_one_out_error() > 0.2);
    }

    #[test]
    fn empty_query_set_gives_zero_error() {
        let (x, y) = clustered_data(5);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert_eq!(index.one_nn_error(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn clustered_backend_matches_exhaustive_on_every_query_path() {
        let (x, y) = clustered_data(60);
        let queries = Matrix::from_rows(&[vec![1.0, 1.0], vec![9.0, 9.0], vec![4.9, 5.1], vec![0.0, 0.2]]);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let exhaustive = BruteForceIndex::new(&x, &y, 2, metric);
            let clustered = BruteForceIndex::new(&x, &y, 2, metric)
                .with_backend(crate::clustered::EvalBackend::clustered(4));
            assert!(clustered.clustered.is_some());
            for k in [1usize, 3, 10] {
                assert_eq!(clustered.neighbor_table(&queries, k), exhaustive.neighbor_table(&queries, k));
                assert_eq!(clustered.leave_one_out_table(k), exhaustive.leave_one_out_table(k));
            }
            assert_eq!(clustered.leave_one_out_error().to_bits(), exhaustive.leave_one_out_error().to_bits());
            assert_eq!(clustered.query_knn(&[0.3, 0.1], 5), exhaustive.query_knn(&[0.3, 0.1], 5));
        }
        // Cosine resolves back to the exhaustive engine.
        let cosine = BruteForceIndex::new(&x, &y, 2, Metric::Cosine)
            .with_backend(crate::clustered::EvalBackend::clustered(4));
        assert!(cosine.clustered.is_none());
        assert_eq!(
            cosine.neighbor_table(&queries, 3),
            BruteForceIndex::new(&x, &y, 2, Metric::Cosine).neighbor_table(&queries, 3)
        );
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn empty_index_panics() {
        let empty = Matrix::zeros(0, 2);
        let labels: Vec<u32> = vec![];
        let _ = BruteForceIndex::new(&empty, &labels, 2, Metric::Euclidean);
    }
}
