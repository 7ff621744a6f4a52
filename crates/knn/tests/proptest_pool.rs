//! Pool-determinism proptests: the persistent work-stealing pool behind the
//! evaluation engine changes *where* chunks run, never *what* they compute.
//! Every consumer — cold top-k, leave-one-out, the clustered index, the
//! incremental successor state, and the caller-owned-scratch serving
//! variants — must return bit-identical results at every pool worker count.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, knn_reference_loo, EvalEngine};
use snoopy_knn::{BruteForceIndex, ClusteredIndex, IncrementalTopK, Metric, TopKScratch};
use snoopy_linalg::LabeledView;
use snoopy_pool::ThreadPool;
use snoopy_testutil::{cloud, cloud_with_ties};

/// Worker counts the sweep pins (the issue's contract: {1, 2, 8}).
const WORKERS: [usize; 3] = [1, 2, 8];
/// Neighbour capacities the sweep pins (the issue's contract: {1, 3, 10}).
const KS: [usize; 3] = [1, 3, 10];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold `topk` and `topk_loo` on arbitrary tie-saturated data equal the
    /// serial references under pools of 1, 2, and 8 workers, for every
    /// metric, every pinned k, and arbitrary engine chunking.
    #[test]
    fn topk_and_loo_are_worker_count_invariant(
        seed in 0u64..400,
        threads in 1usize..8,
        block in 1usize..96,
    ) {
        let (train_x, _) = cloud_with_ties(seed, 67, 5, 3);
        let (test_x, _) = cloud(seed ^ 0x900d, 19, 5, 3);
        let engine = EvalEngine::with_threads(threads).with_block_rows(block);
        for metric in Metric::all() {
            for k in KS {
                let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                let reference_loo = knn_reference_loo(train_x.view(), metric, k);
                for workers in WORKERS {
                    let pool = ThreadPool::new(workers);
                    let (topk, loo) = pool.install(|| {
                        (
                            engine.topk(train_x.view(), test_x.view(), metric, k),
                            engine.topk_loo(train_x.view(), metric, k),
                        )
                    });
                    prop_assert_eq!(
                        &topk, &reference,
                        "topk metric {} k {} workers {}", metric.name(), k, workers
                    );
                    prop_assert_eq!(
                        &loo, &reference_loo,
                        "loo metric {} k {} workers {}", metric.name(), k, workers
                    );
                }
            }
        }
    }

    /// The clustered index and the incremental state match the exhaustive
    /// serial answers at every pool worker count.
    #[test]
    fn clustered_and_incremental_are_worker_count_invariant(
        seed in 0u64..400,
        nlist in 1usize..12,
        batch in 1usize..30,
    ) {
        let (train_x, train_y) = cloud_with_ties(seed, 61, 4, 3);
        let (test_x, test_y) = cloud(seed ^ 0xc1a5, 17, 4, 3);
        let train = LabeledView::new(&train_x, &train_y).with_classes(3);
        let full_error = BruteForceIndex::from_view(train, Metric::SquaredEuclidean)
            .one_nn_error(&test_x, &test_y);
        for k in KS {
            let reference = knn_reference(train_x.view(), test_x.view(), Metric::SquaredEuclidean, k);
            for workers in WORKERS {
                let pool = ThreadPool::new(workers);
                pool.install(|| {
                    let index = ClusteredIndex::build(train_x.view(), Metric::SquaredEuclidean, nlist);
                    prop_assert_eq!(
                        &index.topk(test_x.view(), k), &reference,
                        "clustered k {} nlist {} workers {}", k, nlist, workers
                    );
                    let mut state =
                        IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, k);
                    for chunk in train.batches(batch) {
                        state.append(chunk.features(), chunk.labels());
                    }
                    prop_assert_eq!(&state.table(), &reference, "incremental k {} workers {}", k, workers);
                    prop_assert_eq!(state.error().to_bits(), full_error.to_bits());
                    Ok(())
                })?;
            }
        }
    }

    /// The zero-alloc serving variants (`topk_with` / `topk_loo_with`) are
    /// bit-identical to their allocating counterparts while one scratch is
    /// reused across differently-shaped calls — shrinking and growing query
    /// counts, changing k, switching metrics — and across worker counts.
    #[test]
    fn scratch_reuse_is_bit_identical_across_shapes(
        seed in 0u64..400,
        threads in 1usize..8,
    ) {
        let (train_x, _) = cloud_with_ties(seed, 53, 6, 3);
        let (big_q, _) = cloud(seed ^ 0xbe9, 23, 6, 3);
        let (small_q, _) = cloud(seed ^ 0x5a11, 7, 6, 3);
        let engine = EvalEngine::with_threads(threads);
        for workers in WORKERS {
            let pool = ThreadPool::new(workers);
            pool.install(|| {
                let mut scratch = TopKScratch::new();
                // One scratch, many shapes: each call must match a fresh
                // allocating call exactly.
                for (queries, k, metric) in [
                    (big_q.view(), 3, Metric::SquaredEuclidean),
                    (small_q.view(), 10, Metric::SquaredEuclidean),
                    (big_q.view(), 1, Metric::Cosine),
                    (small_q.view(), 3, Metric::Euclidean),
                    (big_q.view(), 10, Metric::Euclidean),
                ] {
                    let got = engine.topk_with(&mut scratch, train_x.view(), queries, metric, k);
                    prop_assert_eq!(
                        got, &engine.topk(train_x.view(), queries, metric, k),
                        "topk_with k {} metric {} workers {}", k, metric.name(), workers
                    );
                }
                for k in KS {
                    let got = engine.topk_loo_with(&mut scratch, train_x.view(), Metric::SquaredEuclidean, k);
                    prop_assert_eq!(
                        got, &engine.topk_loo(train_x.view(), Metric::SquaredEuclidean, k),
                        "topk_loo_with k {} workers {}", k, workers
                    );
                }
                Ok(())
            })?;
        }
    }
}
