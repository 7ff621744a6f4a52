//! Exact brute-force k-nearest-neighbour index over a borrowed
//! [`LabeledView`]. Its neighbour tables and its 1NN and kNN classifier
//! errors on a held-out query set all route through the shared
//! [`EvalEngine`] top-k kernel and its [`NeighborTable`] results, so tie
//! handling (lowest global index wins on equal distances) and
//! floating-point behaviour are identical across all of them.
//!
//! With at most a few tens of thousands of samples per task replica and
//! moderate embedding dimensions, exact brute force in `O(n · d)` per query is
//! both simple and fast enough (the paper's own system computes exact 1NN on
//! GPU). The index borrows its training data — building one never clones a
//! feature matrix — and binds its [`MetricKernel`] train-side norm cache
//! once at construction, so batch queries pay one query-side norm pass and
//! nothing per query.

use crate::engine::{EvalEngine, NeighborTable, TopKState};
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
        Self { view, kernel, vote_classes }
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

    /// Top-`k` neighbour table for every row of `queries`, computed by the
    /// blocked chunk-parallel engine with the index's precomputed norm
    /// scratch. `k` is clamped to `[1, len]`.
    pub fn neighbor_table<'q>(&self, queries: impl Into<DatasetView<'q>>, k: usize) -> NeighborTable {
        let queries = queries.into();
        let mut kernel = self.kernel.clone();
        kernel.bind_queries(queries);
        let mut states = vec![TopKState::new(k.min(self.len())); queries.rows()];
        EvalEngine::default().update_topk(queries, &kernel, self.view.features(), 0, &mut states);
        NeighborTable::from_states(&states)
    }

    /// kNN classifier error on a labelled query set (fraction of
    /// misclassified queries, 0 for no queries): one parallel top-k table
    /// pass, then a cheap serial vote.
    ///
    /// # Panics
    /// Panics if `query_labels` disagrees with the query count.
    pub fn knn_error<'q>(&self, queries: impl Into<DatasetView<'q>>, query_labels: &[u32], k: usize) -> f64 {
        self.neighbor_table(queries, k).knn_error(k, self.labels(), query_labels, self.vote_classes)
    }

    /// 1NN classifier error on a labelled query set (0 for no queries): the
    /// `k = 1` neighbour table's first hits against `query_labels`.
    ///
    /// # Panics
    /// Panics if `query_labels` disagrees with the query count.
    pub fn one_nn_error<'q>(&self, queries: impl Into<DatasetView<'q>>, query_labels: &[u32]) -> f64 {
        self.neighbor_table(queries, 1).one_nn_error(self.labels(), query_labels)
    }

    /// 1NN classifier error on a labelled evaluation view.
    pub fn one_nn_error_view(&self, eval: LabeledView<'_>) -> f64 {
        self.one_nn_error(eval.features(), eval.labels())
    }
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
        let nearest = index.neighbor_table(DatasetView::from_row(&query), 1).neighbors(0)[0];
        assert_eq!(index.labels()[nearest.index], 1);
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
        let table = index.neighbor_table(DatasetView::from_row(&[0.0, 0.0]), 5);
        let neigh = table.neighbors(0);
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
        assert_eq!(index.neighbor_table(DatasetView::from_row(&[0.0, 0.0]), 10).k(), 3);
        // Two of the three neighbours say 0.
        let query = DatasetView::from_row(&[0.2, 0.0]);
        assert_eq!(index.knn_error(query, &[0], 3), 0.0);
        assert_eq!(index.knn_error(query, &[1], 3), 1.0);
    }

    #[test]
    fn batch_matches_sequential() {
        let (x, y) = clustered_data(40);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        let queries = Matrix::from_rows(&[vec![1.0, 1.0], vec![9.0, 9.0], vec![4.9, 5.1], vec![0.0, 0.2]]);
        let batch = index.neighbor_table(&queries, 1);
        for i in 0..queries.rows() {
            let single = index.neighbor_table(DatasetView::from_row(queries.row(i)), 1);
            assert_eq!(batch.neighbors(i), single.neighbors(0));
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
    fn empty_query_set_gives_zero_error() {
        let (x, y) = clustered_data(5);
        let index = BruteForceIndex::new(&x, &y, 2, Metric::SquaredEuclidean);
        assert_eq!(index.one_nn_error(&Matrix::zeros(0, 2), &[]), 0.0);
        assert_eq!(index.knn_error(&Matrix::zeros(0, 2), &[], 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn empty_index_panics() {
        let empty = Matrix::zeros(0, 2);
        let labels: Vec<u32> = vec![];
        let _ = BruteForceIndex::new(&empty, &labels, 2, Metric::Euclidean);
    }
}
