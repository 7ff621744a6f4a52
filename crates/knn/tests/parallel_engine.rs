//! Integration tests pinning down the central guarantee of the evaluation
//! engine: its one blocked, chunk-parallel scan loop returns
//! **bit-identical** results to the plain serial reference loops, for every
//! metric, every `k` (the 1NN table is the `k = 1` top-k table), every
//! engine shape, batch-streamed ingestion, and through every consumer
//! (the brute-force index's neighbour tables and errors, the incremental
//! top-k state, and KDE's per-class kernel sums). The engine splits each scan into
//! one chunk per worker of the pool it runs on, so every sweep over chunk
//! counts installs a pool of that many workers.

use snoopy_knn::engine::{
    knn_reference, nearest_reference, EvalEngine, NearestHit, NeighborTable, TopKState,
};
use snoopy_knn::{BruteForceIndex, IncrementalTopK, Metric};
use snoopy_linalg::{DatasetView, LabeledView, Matrix};
use snoopy_pool::ThreadPool;
// Shared fixture (duplicated rows so distance ties actually occur —
// tie-breaking is part of the bit-identical contract).
use snoopy_testutil::cloud_with_ties as cloud;

/// The first hit of every query of a `k = 1` table, in query order.
fn first_hits(table: &NeighborTable) -> Vec<NearestHit> {
    (0..table.num_queries()).filter_map(|q| table.first(q)).collect()
}

/// Runs `f` on a fresh pool of `workers` workers, so every scan inside
/// splits into that many chunks.
fn on_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    ThreadPool::new(workers).install(f)
}

#[test]
fn engine_is_bit_identical_to_serial_reference_for_all_metrics_and_shapes() {
    let (train_x, _) = cloud(11, 203, 13, 4);
    let (test_x, _) = cloud(12, 61, 13, 4);
    for metric in Metric::all() {
        let reference = nearest_reference(train_x.view(), test_x.view(), metric);
        for workers in [1usize, 2, 3, 8] {
            let pool = ThreadPool::new(workers);
            for block_rows in [1usize, 7, 64, 1024] {
                let engine = EvalEngine::default().with_block_rows(block_rows);
                let got = pool.install(|| engine.topk(train_x.view(), test_x.view(), metric, 1));
                assert_eq!(
                    first_hits(&got),
                    reference,
                    "metric {} workers {workers} block {block_rows}",
                    metric.name()
                );
            }
        }
    }
}

#[test]
fn index_batch_queries_match_reference_indices_and_distances() {
    let (train_x, train_y) = cloud(21, 157, 6, 3);
    let (test_x, test_y) = cloud(22, 43, 6, 3);
    for metric in Metric::all() {
        let reference = nearest_reference(train_x.view(), test_x.view(), metric);
        let index = BruteForceIndex::new(&train_x, &train_y, 3, metric);
        let batch = first_hits(&index.neighbor_table(&test_x, 1));
        assert_eq!(batch.len(), reference.len());
        for (got, expected) in batch.iter().zip(&reference) {
            assert_eq!(got.index, expected.index, "metric {}", metric.name());
            assert_eq!(got.distance.to_bits(), expected.distance.to_bits(), "metric {}", metric.name());
        }
        // The error computed through the parallel engine equals the error of
        // a serial scan on a 1-worker pool.
        assert_eq!(
            index.one_nn_error(&test_x, &test_y).to_bits(),
            on_pool(1, || index.one_nn_error(&test_x, &test_y)).to_bits(),
            "metric {}",
            metric.name()
        );
    }
}

#[test]
fn incremental_appends_match_reference_at_every_batch_boundary() {
    let (train_x, train_y) = cloud(31, 120, 5, 3);
    let (test_x, test_y) = cloud(32, 37, 5, 3);
    let train = LabeledView::new(&train_x, &train_y).with_classes(3);
    for metric in Metric::all() {
        for batch_size in [1usize, 13, 40, 120] {
            let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), metric, 1);
            let mut consumed = 0;
            for batch in train.batches(batch_size) {
                state.append(batch.features(), batch.labels());
                consumed += batch.len();
                let prefix = train.prefix(consumed);
                let reference = nearest_reference(prefix.features(), test_x.view(), metric);
                let got = first_hits(&state.table());
                assert_eq!(got, reference, "metric {} batch {batch_size} prefix {consumed}", metric.name());
            }
        }
    }
}

#[test]
fn topk_is_bit_identical_to_serial_reference_for_all_metrics_shapes_and_ks() {
    let (train_x, _) = cloud(51, 149, 9, 4);
    let (test_x, _) = cloud(52, 47, 9, 4);
    for metric in Metric::all() {
        for k in [1usize, 3, 10, 149] {
            let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
            for workers in [1usize, 3, 8] {
                let pool = ThreadPool::new(workers);
                for block_rows in [1usize, 7, 64, 1024] {
                    let engine = EvalEngine::default().with_block_rows(block_rows);
                    let got = pool.install(|| engine.topk(train_x.view(), test_x.view(), metric, k));
                    assert_eq!(
                        got,
                        reference,
                        "metric {} k {k} workers {workers} block {block_rows}",
                        metric.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batch_streamed_topk_ingestion_matches_cold_start_and_reference() {
    let (train_x, _) = cloud(61, 131, 6, 3);
    let (test_x, _) = cloud(62, 33, 6, 3);
    let engine = EvalEngine::default().with_block_rows(16);
    let pool = ThreadPool::new(4);
    for metric in Metric::all() {
        for batch_size in [1usize, 13, 50, 131] {
            let mut kernel = snoopy_knn::MetricKernel::new(metric);
            kernel.bind_queries(test_x.view());
            let mut states = vec![TopKState::new(5); test_x.rows()];
            let mut consumed = 0;
            for batch in train_x.view().batches(batch_size) {
                kernel.bind_train(batch);
                pool.install(|| engine.update_topk(test_x.view(), &kernel, batch, consumed, &mut states));
                consumed += batch.rows();
                // At every batch boundary the accumulated table equals the
                // cold-start answer on the consumed prefix.
                let table = NeighborTable::from_states(&states);
                let prefix = train_x.view().prefix(consumed);
                assert_eq!(
                    table,
                    knn_reference(prefix, test_x.view(), metric, 5),
                    "metric {} batch {batch_size} prefix {consumed}",
                    metric.name()
                );
            }
        }
    }
}

#[test]
fn index_knn_queries_match_the_engine_table() {
    let (train_x, train_y) = cloud(71, 97, 5, 4);
    let (test_x, test_y) = cloud(72, 29, 5, 4);
    for metric in Metric::all() {
        let index = BruteForceIndex::new(&train_x, &train_y, 4, metric);
        for k in [1usize, 4, 97, 500] {
            let table = index.neighbor_table(&test_x, k);
            assert_eq!(table, knn_reference(train_x.view(), test_x.view(), metric, k.min(97)));
            for (qi, q) in test_x.view().rows_iter().enumerate() {
                let single = index.neighbor_table(DatasetView::from_row(q), k);
                assert_eq!(single.k(), table.k());
                for (got, expected) in single.neighbors(0).iter().zip(table.neighbors(qi)) {
                    assert_eq!(got.index, expected.index);
                    assert_eq!(got.distance.to_bits(), expected.distance.to_bits());
                }
            }
            // The vote-based error agrees between the parallel table path and
            // a serial scan on a 1-worker pool.
            assert_eq!(
                index.knn_error(&test_x, &test_y, k).to_bits(),
                on_pool(1, || index.knn_error(&test_x, &test_y, k)).to_bits(),
                "metric {} k {k}",
                metric.name()
            );
        }
    }
}

/// The shared tie-break contract: on equal distances the lowest global
/// training index wins — in the engine's top-k kernel and in the brute-force
/// index's neighbour table, which routes through it.
#[test]
fn topk_and_neighbor_table_share_the_lowest_index_tie_break() {
    // Five copies of each of ten distinct rows: every query's top-15 must be
    // exactly the three lowest-index copies of its five nearest row values.
    let distinct: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, (i * i) as f32 * 0.1]).collect();
    let rows: Vec<Vec<f32>> = (0..50).map(|r| distinct[r % 10].clone()).collect();
    let train_x = Matrix::from_rows(&rows);
    let train_y: Vec<u32> = (0..50).map(|i| (i % 3) as u32).collect();
    let (test_x, _) = cloud(91, 12, 2, 3);
    for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
        let reference = knn_reference(train_x.view(), test_x.view(), metric, 15);
        let engine_table = on_pool(4, || {
            EvalEngine::default().with_block_rows(8).topk(train_x.view(), test_x.view(), metric, 15)
        });
        assert_eq!(engine_table, reference);
        let table = BruteForceIndex::new(&train_x, &train_y, 3, metric).neighbor_table(&test_x, 15);
        for qi in 0..test_x.rows() {
            let neighbors = table.neighbors(qi);
            let idx: Vec<usize> = neighbors.iter().map(|n| n.index).collect();
            let expected: Vec<usize> = reference.neighbors(qi).iter().map(|h| h.index).collect();
            assert_eq!(idx, expected, "metric {} query {qi}", metric.name());
            // Equal-distance groups are ordered by ascending global index.
            for w in neighbors.windows(2) {
                assert!(
                    w[0].distance < w[1].distance
                        || (w[0].distance == w[1].distance && w[0].index < w[1].index),
                    "ties must resolve to the lowest index"
                );
            }
        }
    }
}

/// Regression for the lexicographic admission invariant of `update_topk`:
/// the original tie-break test covered batch-streamed ingestion at a single
/// block size. This sweep pins the invariant against *both* knobs — block
/// sizes {1, 7, exact-multiple, > n} and pool worker counts {1, 2, 8} — for
/// cold-start and batch-streamed ingestion on tie-saturated data (five
/// copies of each distinct row value).
#[test]
fn topk_tie_break_is_invariant_across_block_sizes_and_thread_counts() {
    let distinct: Vec<Vec<f32>> =
        (0..12).map(|i| vec![i as f32 * 0.5, (i * i) as f32 * 0.1, -(i as f32)]).collect();
    let rows: Vec<Vec<f32>> = (0..60).map(|r| distinct[r % 12].clone()).collect();
    let train_x = Matrix::from_rows(&rows);
    let (test_x, _) = cloud(93, 14, 3, 2);
    let n = train_x.rows();
    for metric in Metric::all() {
        for k in [1usize, 6, 17] {
            let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
            for workers in [1usize, 2, 8] {
                let pool = ThreadPool::new(workers);
                // Block sizes: degenerate (1), odd (7), an exact divisor of
                // n (15 divides 60), and one larger than n.
                for block_rows in [1usize, 7, 15, n + 40] {
                    let engine = EvalEngine::default().with_block_rows(block_rows);
                    let cold = pool.install(|| engine.topk(train_x.view(), test_x.view(), metric, k));
                    assert_eq!(
                        cold,
                        reference,
                        "cold metric {} k {k} workers {workers} block {block_rows}",
                        metric.name()
                    );
                    for batch in [1usize, 7, n, n + 40] {
                        let mut kernel = snoopy_knn::MetricKernel::new(metric);
                        kernel.bind_queries(test_x.view());
                        let mut states = vec![TopKState::new(k); test_x.rows()];
                        let mut consumed = 0;
                        for chunk in train_x.view().batches(batch) {
                            kernel.bind_train(chunk);
                            pool.install(|| {
                                engine.update_topk(test_x.view(), &kernel, chunk, consumed, &mut states)
                            });
                            consumed += chunk.rows();
                        }
                        assert_eq!(
                            NeighborTable::from_states(&states),
                            reference,
                            "streamed metric {} k {k} workers {workers} block {block_rows} batch {batch}",
                            metric.name()
                        );
                    }
                }
            }
        }
    }
}

/// The tile-size sweep (CI runs this by name): results are bit-identical
/// across every tile size — degenerate (1), lane-straddling (3, 9), the
/// register block and its neighbours (4, 5), non-divisors of the block size,
/// and tiles larger than the training set — for every metric and for the
/// exhaustive and streamed consumers and KDE's per-class kernel sums.
#[test]
fn tile_sweep_is_bit_identical_across_every_consumer() {
    let (train_x, train_y) = cloud(97, 143, 11, 3);
    let (test_x, test_y) = cloud(98, 31, 11, 3);
    let train = LabeledView::new(&train_x, &train_y).with_classes(3);
    let three = ThreadPool::new(3);
    for metric in Metric::all() {
        for k in [1usize, 5] {
            let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
            for tile_rows in [1usize, 3, 4, 5, 9, 33, 64, 200] {
                let engine = EvalEngine::default().with_tile_rows(tile_rows);
                assert_eq!(
                    three.install(|| engine.topk(train_x.view(), test_x.view(), metric, k)),
                    reference,
                    "metric {} k {k} tile {tile_rows}",
                    metric.name()
                );
            }
        }
    }
    // The streamed consumer under the same sweep.
    let full_error =
        BruteForceIndex::from_view(train, Metric::SquaredEuclidean).one_nn_error(&test_x, &test_y);
    let two = ThreadPool::new(2);
    for tile_rows in [1usize, 5, 33, 200] {
        let engine = EvalEngine::default().with_tile_rows(tile_rows);
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, 1)
            .with_engine(engine);
        for batch in LabeledView::new(&train_x, &train_y).batches(29) {
            two.install(|| state.append(batch.features(), batch.labels()));
        }
        assert_eq!(state.error().to_bits(), full_error.to_bits(), "incremental tile {tile_rows}");
    }
    // KDE's class sums under the same sweep, on pools of 1 and 3 workers.
    let one = ThreadPool::new(1);
    let class_sums = |pool: &ThreadPool, engine: EvalEngine| -> Vec<u64> {
        let sums =
            pool.install(|| engine.class_kernel_log_sums(test_x.view(), train_x.view(), &train_y, 3, 0.05));
        sums.iter().map(|v| v.to_bits()).collect()
    };
    let reference = class_sums(&one, EvalEngine::default());
    for tile_rows in [1usize, 3, 4, 5, 9, 33, 64, 200] {
        for (workers, pool) in [(1, &one), (3, &three)] {
            let engine = EvalEngine::default().with_tile_rows(tile_rows);
            assert_eq!(class_sums(pool, engine), reference, "class sums tile {tile_rows} workers {workers}");
        }
    }
}

#[test]
fn leading_duplicates_resolve_to_the_lowest_train_index() {
    // All training rows identical: the nearest index must always be 0 for
    // every engine shape (strict `<` keeps the first minimum).
    let train_x = Matrix::from_fn(50, 4, |_, _| 1.5);
    let train_y: Vec<u32> = (0..50).map(|i| (i % 2) as u32).collect();
    let (test_x, _) = cloud(41, 16, 4, 2);
    for metric in Metric::all() {
        for workers in [1usize, 4] {
            let engine = EvalEngine::default().with_block_rows(8);
            let hits =
                first_hits(&on_pool(workers, || engine.topk(train_x.view(), test_x.view(), metric, 1)));
            assert_eq!(hits.len(), test_x.rows());
            assert!(hits.iter().all(|h| h.index == 0), "metric {} workers {workers}", metric.name());
        }
        let index = BruteForceIndex::new(&train_x, &train_y, 2, metric);
        assert!(first_hits(&index.neighbor_table(&test_x, 1)).iter().all(|h| h.index == 0));
    }
}
