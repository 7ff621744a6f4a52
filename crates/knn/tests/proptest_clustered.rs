//! Property tests pinning the exactness guarantee of the clustered index:
//! the k-means + triangle-inequality-pruned path is **bit-identical** to the
//! serial sort-based reference (and hence to the exhaustive engine) for
//! every prunable metric, k ∈ {1, 3, 10, len}, arbitrary `nlist` (including
//! `nlist > n`), duplicate rows, single-cluster partitions, and the
//! self-excluding leave-one-out mode — the same way `proptest_knn.rs` pinned
//! the parallel engine.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, knn_reference_loo};
use snoopy_knn::{ClusteredIndex, EvalBackend, EvalEngine, Metric, PruneStats, ShardedIndex, TopKState};
use snoopy_testutil::{cloud, cloud_with_ties};

fn prunable_metrics() -> [Metric; 2] {
    [Metric::SquaredEuclidean, Metric::Euclidean]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-start clustered top-k equals the reference for arbitrary data
    /// shapes and cluster counts (including nlist = 1 and nlist > n), with
    /// duplicated rows so the lexicographic tie-break is exercised.
    #[test]
    fn clustered_topk_equals_reference(
        seed in 0u64..400,
        n in 1usize..90,
        nlist in 1usize..64,
        threads in 1usize..8,
    ) {
        let (train_x, _) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, _) = cloud(seed ^ 0x77, 17, 5, 3);
        let engine = EvalEngine::with_threads(threads);
        for metric in prunable_metrics() {
            let index = ClusteredIndex::build_with_engine(train_x.view(), metric, nlist, engine);
            prop_assert!(index.num_clusters() <= n.min(nlist));
            for k in [1usize, 3, 10, n] {
                let got = index.topk(test_x.view(), k);
                let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                prop_assert_eq!(got, reference, "metric {} k {} nlist {}", metric.name(), k, nlist);
            }
        }
    }

    /// The self-excluding leave-one-out mode equals the reference: row i's
    /// list never contains i, even with duplicate rows at distance zero.
    #[test]
    fn clustered_loo_equals_reference(
        seed in 0u64..400,
        n in 2usize..70,
        nlist in 1usize..32,
    ) {
        let (data, _) = cloud_with_ties(seed, n, 4, 3);
        for metric in prunable_metrics() {
            let index = ClusteredIndex::build(data.view(), metric, nlist);
            for k in [1usize, 3, 10, n] {
                let got = index.topk_loo(data.view(), k);
                let reference = knn_reference_loo(data.view(), metric, k);
                prop_assert_eq!(&got, &reference, "metric {} k {} nlist {}", metric.name(), k, nlist);
                for q in 0..got.num_queries() {
                    prop_assert!(got.neighbors(q).iter().all(|h| h.index != q));
                }
            }
        }
    }

    /// The backend dispatcher is exact for every metric — cosine resolves
    /// back to the exhaustive kernel, prunable metrics go through the index.
    #[test]
    fn backend_dispatch_equals_reference_for_all_metrics(
        seed in 0u64..300,
        n in 1usize..80,
        nlist in 1usize..24,
    ) {
        let (train_x, _) = cloud_with_ties(seed, n, 4, 3);
        let (test_x, _) = cloud(seed ^ 0xbeef, 11, 4, 3);
        let engine = EvalEngine::parallel();
        for metric in Metric::all() {
            for backend in [EvalBackend::Exhaustive, EvalBackend::clustered(nlist), EvalBackend::quantized(nlist)] {
                let got = engine.topk_with_backend(train_x.view(), test_x.view(), metric, 5, backend);
                let reference = knn_reference(train_x.view(), test_x.view(), metric, 5);
                prop_assert_eq!(got, reference, "metric {} backend {}", metric.name(), backend.name());
                if n >= 2 {
                    let loo = engine.topk_loo_with_backend(train_x.view(), metric, 4, backend);
                    prop_assert_eq!(loo, knn_reference_loo(train_x.view(), metric, 4));
                }
            }
        }
    }

    /// Streamed fold parity: seeding states with earlier batches' results
    /// and folding the remaining batches through per-batch clustered indexes
    /// accumulates to the cold-start reference — through resident and
    /// shard-paged indexes alike, the latter at a non-zero `offset` into
    /// pre-seeded states under any budget and prefetch depth.
    #[test]
    fn streamed_clustered_fold_accumulates_to_reference(
        seed in 0u64..300,
        batch in 1usize..40,
        nlist in 1usize..12,
        budget in 0usize..4096,
        depth in 0usize..3,
    ) {
        let (train_x, _) = cloud_with_ties(seed, 70, 4, 3);
        let (test_x, _) = cloud(seed ^ 0x5eed, 13, 4, 3);
        for metric in prunable_metrics() {
            let mut states = vec![TopKState::new(4); test_x.rows()];
            let mut paged_states = states.clone();
            let mut consumed = 0;
            for chunk in train_x.view().batches(batch) {
                let index = ClusteredIndex::build(chunk, metric, nlist);
                let stats = index.update_topk(test_x.view(), consumed, &mut states, None);
                let mut paged = ShardedIndex::build(chunk, metric, nlist, budget).with_prefetch_depth(depth);
                let paged_stats = paged.update_topk(test_x.view(), consumed, &mut paged_states, None);
                prop_assert_eq!(&paged_states, &states, "{} prefix {}", metric.name(), consumed);
                prop_assert_eq!(paged_stats, stats);
                consumed += chunk.rows();
            }
            let table = snoopy_knn::NeighborTable::from_states(&states);
            prop_assert_eq!(table, knn_reference(train_x.view(), test_x.view(), metric, 4), "{}", metric.name());
        }
    }
}

/// Deterministic degenerate shapes the proptest ranges cannot hit exactly.
#[test]
fn degenerate_single_row_and_single_cluster() {
    let (one, _) = cloud(1, 1, 3, 2);
    let (queries, _) = cloud(2, 5, 3, 2);
    for metric in prunable_metrics() {
        let index = ClusteredIndex::build(one.view(), metric, 8);
        assert_eq!(index.num_clusters(), 1);
        assert_eq!(index.topk(queries.view(), 3), knn_reference(one.view(), queries.view(), metric, 3));
    }
    // nlist = 1: a single cluster degenerates to an exhaustive scan and must
    // still be exact.
    let (train_x, _) = cloud_with_ties(3, 50, 4, 3);
    let index = ClusteredIndex::build(train_x.view(), Metric::SquaredEuclidean, 1);
    assert_eq!(index.num_clusters(), 1);
    let (test_x, _) = cloud(4, 9, 4, 3);
    assert_eq!(
        index.topk(test_x.view(), 7),
        knn_reference(train_x.view(), test_x.view(), Metric::SquaredEuclidean, 7)
    );
    // Zero queries: every constructor builds the same empty table.
    let no_queries = test_x.view().slice_rows(0, 0);
    for metric in prunable_metrics() {
        let reference = knn_reference(train_x.view(), no_queries, metric, 7);
        assert_eq!(reference.num_queries(), 0);
        let index = ClusteredIndex::build(train_x.view(), metric, 4);
        assert_eq!(index.topk(no_queries, 7), reference, "{}", metric.name());
        let engine = EvalEngine::parallel();
        assert_eq!(engine.topk(train_x.view(), no_queries, metric, 7), reference, "{}", metric.name());
    }
    // The shard-paged index on the same shapes — one row (nlist > n),
    // nlist = 1, and zero queries — under a zero budget (every fault evicts
    // the previous shard) at prefetch depths 0 and 2.
    for metric in prunable_metrics() {
        for depth in [0usize, 2] {
            let mut paged = ShardedIndex::build(one.view(), metric, 8, 0).with_prefetch_depth(depth);
            assert_eq!(paged.num_clusters(), 1);
            assert_eq!(paged.topk(queries.view(), 3), knn_reference(one.view(), queries.view(), metric, 3));
            let mut paged = ShardedIndex::build(train_x.view(), metric, 1, 0).with_prefetch_depth(depth);
            assert_eq!(paged.num_clusters(), 1);
            assert_eq!(paged.topk(test_x.view(), 7), knn_reference(train_x.view(), test_x.view(), metric, 7));
            let (table, stats) = paged.topk_with_stats(no_queries, 7);
            assert_eq!(table.num_queries(), 0);
            assert_eq!(table, knn_reference(train_x.view(), no_queries, metric, 7));
            assert_eq!(stats, PruneStats::default());
        }
    }
}
