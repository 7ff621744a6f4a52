//! Property-based tests for the k-nearest-neighbour crate.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, EvalEngine, NeighborTable, TopKState};
use snoopy_knn::{BruteForceIndex, IncrementalTopK, Metric, MetricKernel};
use snoopy_linalg::LabeledView;
use snoopy_pool::ThreadPool;
use snoopy_testutil::{cloud, cloud_with_ties};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental state fed in arbitrary batch sizes always matches a
    /// full brute-force recomputation on the same prefix.
    #[test]
    fn appended_equals_full(seed in 0u64..500, batch in 1usize..40) {
        let (train_x, train_y) = cloud(seed, 80, 4, 3);
        let (test_x, test_y) = cloud(seed ^ 0xff, 30, 4, 3);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 1);
        let train = LabeledView::new(&train_x, &train_y).with_classes(3);
        let mut consumed = 0;
        while consumed < train_x.rows() {
            let end = (consumed + batch).min(train_x.rows());
            let chunk = train.slice(consumed, end);
            let appended_err = state.append(chunk.features(), chunk.labels());
            consumed = end;
            let full_err = BruteForceIndex::from_view(train.prefix(consumed), Metric::SquaredEuclidean)
                .one_nn_error(&test_x, &test_y);
            prop_assert!((appended_err - full_err).abs() < 1e-12);
        }
    }

    /// Incremental re-labelling equals full recomputation for arbitrary
    /// cleaning sequences.
    #[test]
    fn incremental_equals_full_after_relabels(
        seed in 0u64..500,
        edits in prop::collection::vec((0usize..60, 0u32..3), 0..30),
    ) {
        let (train_x, mut train_y) = cloud(seed, 60, 3, 3);
        let (test_x, test_y) = cloud(seed ^ 0xabc, 25, 3, 3);
        let mut inc = IncrementalTopK::build(&train_x, &train_y, &test_x, &test_y, Metric::SquaredEuclidean, 1);
        for (idx, label) in edits {
            train_y[idx] = label;
            inc.relabel_train(idx, label);
            let full = BruteForceIndex::new(&train_x, &train_y, 3, Metric::SquaredEuclidean)
                .one_nn_error(&test_x, &test_y);
            prop_assert!((inc.error() - full).abs() < 1e-12);
        }
    }

    /// The parallel top-k engine is bit-identical to the serial sort-based
    /// reference for every metric, k ∈ {1, 3, 10, len}, arbitrary scan
    /// shapes (pool workers × blocks × tiles), and batch-streamed ingestion
    /// of the training rows.
    #[test]
    fn parallel_topk_equals_serial_reference(
        seed in 0u64..500,
        workers in 1usize..8,
        block in 1usize..96,
        tile in 1usize..80,
        batch in 1usize..40,
    ) {
        let n = 60;
        let (train_x, _) = cloud(seed, n, 4, 3);
        let (test_x, _) = cloud(seed ^ 0x5eed, 18, 4, 3);
        let engine = EvalEngine::default().with_block_rows(block).with_tile_rows(tile);
        ThreadPool::new(workers).install(|| -> Result<(), TestCaseError> {
            for metric in Metric::all() {
                for k in [1usize, 3, 10, n] {
                    let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                    // Cold start.
                    prop_assert_eq!(
                        &engine.topk(train_x.view(), test_x.view(), metric, k),
                        &reference,
                        "cold metric {} k {}", metric.name(), k
                    );
                    // Batch-streamed ingestion accumulates to the same table.
                    let mut kernel = MetricKernel::new(metric);
                    kernel.bind_queries(test_x.view());
                    let mut states = vec![TopKState::new(k); test_x.rows()];
                    let mut consumed = 0;
                    for chunk in train_x.view().batches(batch) {
                        kernel.bind_train(chunk);
                        engine.update_topk(test_x.view(), &kernel, chunk, consumed, &mut states);
                        consumed += chunk.rows();
                    }
                    prop_assert_eq!(
                        &NeighborTable::from_states(&states),
                        &reference,
                        "streamed metric {} k {} batch {}", metric.name(), k, batch
                    );
                }
            }
            Ok(())
        })?;
    }

    /// Tiled kernel == fixed-order serial reference on *ragged tile edges*:
    /// dimensions straddling the lane width, row counts straddling the
    /// register block, tile sizes that do not divide either, duplicate rows
    /// (distance ties), and the clustered + streamed consumers on top. This
    /// is the kernel layer's determinism contract, proptested.
    #[test]
    fn tiled_kernel_equals_reference_on_ragged_edges(
        seed in 0u64..400,
        d in 1usize..20,
        n in 1usize..50,
        tile in 1usize..60,
    ) {
        let (train_x, train_y) = cloud_with_ties(seed, n, d, 3);
        let (test_x, test_y) = cloud(seed ^ 0x7117, 9, d, 3);
        let engine = EvalEngine::default().with_tile_rows(tile);
        let pool = ThreadPool::new(3);
        for metric in Metric::all() {
            for k in [1usize, 3, 10, n] {
                let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                prop_assert_eq!(
                    &pool.install(|| engine.topk(train_x.view(), test_x.view(), metric, k)),
                    &reference,
                    "metric {} k {} d {} tile {}", metric.name(), k, d, tile
                );
            }
        }
        // Incremental consumer: the running append fold through the tiled
        // engine matches a cold-start brute-force recomputation.
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 1)
            .with_engine(engine);
        let train = LabeledView::new(&train_x, &train_y).with_classes(3);
        for chunk in train.batches(17) {
            pool.install(|| state.append(chunk.features(), chunk.labels()));
        }
        let full = BruteForceIndex::from_view(train, Metric::SquaredEuclidean)
            .one_nn_error(&test_x, &test_y);
        prop_assert!((state.error() - full).abs() < 1e-12);
    }

    /// kNN neighbour lists are sorted by distance and contain distinct indices.
    #[test]
    fn knn_lists_sorted_and_distinct(seed in 0u64..500, k in 1usize..20) {
        let (train_x, train_y) = cloud(seed, 50, 5, 4);
        let (query_x, _) = cloud(seed ^ 0x77, 5, 5, 4);
        let table = BruteForceIndex::new(&train_x, &train_y, 4, Metric::Euclidean).neighbor_table(&query_x, k);
        for qi in 0..query_x.rows() {
            let neigh = table.neighbors(qi);
            prop_assert_eq!(neigh.len(), k.min(50));
            for w in neigh.windows(2) {
                prop_assert!(w[0].distance <= w[1].distance);
            }
            let mut ids: Vec<usize> = neigh.iter().map(|n| n.index).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), neigh.len());
        }
    }

    /// Metric axioms that nearest-neighbour search relies on: non-negativity,
    /// symmetry, and identity.
    #[test]
    fn metric_axioms(
        a in prop::collection::vec(-100.0f32..100.0, 8),
        b in prop::collection::vec(-100.0f32..100.0, 8),
    ) {
        for metric in Metric::all() {
            let dab = metric.distance(&a, &b);
            let dba = metric.distance(&b, &a);
            prop_assert!(dab >= -1e-6, "{} non-negative", metric.name());
            prop_assert!((dab - dba).abs() < 1e-4, "{} symmetric", metric.name());
            prop_assert!(metric.distance(&a, &a).abs() < 1e-5, "{} identity", metric.name());
        }
    }

    /// Adding more training data never increases the appended error by more
    /// than it can justify: the curve endpoint equals the full-data 1NN error.
    #[test]
    fn curve_endpoint_matches_full_data_error(seed in 0u64..200) {
        let (train_x, train_y) = cloud(seed, 64, 4, 2);
        let (test_x, test_y) = cloud(seed ^ 0x1234, 20, 4, 2);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::Cosine, 1);
        let mut consumed = 0;
        while consumed < train_x.rows() {
            let end = (consumed + 17).min(train_x.rows());
            state.append(train_x.view().slice_rows(consumed, end), &train_y[consumed..end]);
            consumed = end;
        }
        let full = BruteForceIndex::new(&train_x, &train_y, 2, Metric::Cosine).one_nn_error(&test_x, &test_y);
        let last = state.curve().last().unwrap().1;
        prop_assert!((last - full).abs() < 1e-12);
    }
}
