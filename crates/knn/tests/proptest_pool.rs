//! Pool-determinism proptests: the persistent work-stealing pool behind the
//! evaluation engine changes *where* chunks run, never *what* they compute.
//! Every consumer — cold top-k, the pruned index (whose k-means build and
//! per-shard query fan-out run on the pool), and the incremental successor
//! state — must return bit-identical results at every pool worker count,
//! which is also the number of chunks each scan splits into.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, EvalEngine};
use snoopy_knn::{BruteForceIndex, IncrementalTopK, Metric, ShardedIndex};
use snoopy_linalg::LabeledView;
use snoopy_pool::ThreadPool;
use snoopy_testutil::{cloud, cloud_with_ties};

/// Worker counts the sweep pins (the issue's contract: {1, 2, 8}).
const WORKERS: [usize; 3] = [1, 2, 8];
/// Neighbour capacities the sweep pins (the issue's contract: {1, 3, 10}).
const KS: [usize; 3] = [1, 3, 10];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Cold `topk` on arbitrary tie-saturated data equals the serial
    /// reference under pools of 1, 2, and 8 workers (so scans split into 1,
    /// 2 and 8 chunks), for every metric, every pinned k, and arbitrary row
    /// blocking.
    #[test]
    fn topk_is_worker_count_invariant(
        seed in 0u64..400,
        block in 1usize..96,
    ) {
        let (train_x, _) = cloud_with_ties(seed, 67, 5, 3);
        let (test_x, _) = cloud(seed ^ 0x900d, 19, 5, 3);
        let engine = EvalEngine::default().with_block_rows(block);
        for metric in Metric::all() {
            for k in KS {
                let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                for workers in WORKERS {
                    let pool = ThreadPool::new(workers);
                    let topk = pool.install(|| engine.topk(train_x.view(), test_x.view(), metric, k));
                    prop_assert_eq!(
                        &topk, &reference,
                        "topk metric {} k {} workers {}", metric.name(), k, workers
                    );
                }
            }
        }
    }

    /// The pruned index (paging under a two-shard budget) and the
    /// incremental state match the exhaustive serial answers at every pool
    /// worker count.
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
                    let budget = 2 * train_x.rows().div_ceil(nlist) * train_x.cols() * size_of::<f32>();
                    let mut index =
                        ShardedIndex::build(train_x.view(), Metric::SquaredEuclidean, nlist, budget);
                    prop_assert_eq!(
                        &index.topk(test_x.view(), k), &reference,
                        "pruned k {} nlist {} workers {}", k, nlist, workers
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
}
