//! Property tests pinning the exactness guarantee of the pruned index: the
//! k-means + triangle-inequality-pruned [`ShardedIndex`] is **bit-identical**
//! to the serial sort-based reference (and hence to the exhaustive engine)
//! for every prunable metric, k ∈ {1, 3, 10, len}, arbitrary `nlist`
//! (including `nlist > n`), duplicate rows, single-cluster partitions, and
//! the self-excluding leave-one-out mode — at an unbounded budget (every
//! visited shard stays resident) and at a two-shard budget (eviction churn
//! mid-query) — the same way `proptest_knn.rs` pinned the parallel engine.
//! Paging changes time, never work: tables and every [`PruneStats`] counter
//! are equal at every budget and prefetch depth.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, knn_reference_loo};
use snoopy_knn::{EvalEngine, Metric, PruneStats, ShardedIndex, TopKState};
use snoopy_linalg::DatasetView;
use snoopy_testutil::{cloud, cloud_with_ties};

fn prunable_metrics() -> [Metric; 2] {
    [Metric::SquaredEuclidean, Metric::Euclidean]
}

/// The unbounded budget and a budget of about two shards' f32 rows.
fn budgets(data: DatasetView<'_>, nlist: usize) -> [usize; 2] {
    let shard_rows = data.rows().div_ceil(nlist.clamp(1, data.rows().max(1)));
    [usize::MAX, 2 * shard_rows * data.cols() * size_of::<f32>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-start pruned top-k equals the reference for arbitrary data
    /// shapes and cluster counts (including nlist = 1 and nlist > n), with
    /// duplicated rows so the lexicographic tie-break is exercised.
    #[test]
    fn clustered_topk_equals_reference(
        seed in 0u64..400,
        n in 1usize..90,
        nlist in 1usize..64,
        depth in 0usize..3,
    ) {
        let (train_x, _) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, _) = cloud(seed ^ 0x77, 17, 5, 3);
        for metric in prunable_metrics() {
            for budget in budgets(train_x.view(), nlist) {
                let mut index =
                    ShardedIndex::build(train_x.view(), metric, nlist, budget).with_prefetch_depth(depth);
                prop_assert!(index.num_clusters() <= n.min(nlist));
                for k in [1usize, 3, 10, n] {
                    let got = index.topk(test_x.view(), k);
                    let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                    prop_assert_eq!(
                        got, reference, "metric {} k {} nlist {} budget {}", metric.name(), k, nlist, budget
                    );
                }
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
            for budget in budgets(data.view(), nlist) {
                let mut index = ShardedIndex::build(data.view(), metric, nlist, budget);
                for k in [1usize, 3, 10, n] {
                    let got = index.topk_loo(data.view(), k);
                    let reference = knn_reference_loo(data.view(), metric, k);
                    prop_assert_eq!(
                        &got, &reference, "metric {} k {} nlist {} budget {}", metric.name(), k, nlist, budget
                    );
                    for q in 0..got.num_queries() {
                        prop_assert!(got.neighbors(q).iter().all(|h| h.index != q));
                    }
                }
            }
        }
    }

    /// Streamed fold parity and paging invariance: seeding states with
    /// earlier batches' results and folding the remaining batches through
    /// per-batch indexes, at a non-zero `offset` into pre-seeded states,
    /// accumulates to the cold-start reference. Every batch is folded at
    /// budget 0 (each fault evicts the previous shard), a two-shard budget
    /// and an unbounded one, each at prefetch depths 0 and 2, plain or
    /// quantized: all six return the same states and the same
    /// [`PruneStats`], counter for counter.
    #[test]
    fn streamed_clustered_fold_accumulates_to_reference(
        seed in 0u64..300,
        batch in 1usize..40,
        nlist in 1usize..12,
        quantize in (0u8..2).prop_map(|b| b == 1),
    ) {
        let (train_x, _) = cloud_with_ties(seed, 70, 4, 3);
        let (test_x, _) = cloud(seed ^ 0x5eed, 13, 4, 3);
        for metric in prunable_metrics() {
            let mut states = vec![TopKState::new(4); test_x.rows()];
            let mut consumed = 0;
            for chunk in train_x.view().batches(batch) {
                let [unbounded, two_shards] = budgets(chunk, nlist);
                let mut folds = Vec::new();
                for budget in [0, two_shards, unbounded] {
                    for depth in [0usize, 2] {
                        let mut index =
                            ShardedIndex::build(chunk, metric, nlist, budget).with_prefetch_depth(depth);
                        if quantize {
                            index = index.quantize();
                        }
                        let mut folded = states.clone();
                        let stats = index.update_topk(test_x.view(), consumed, &mut folded, None);
                        folds.push((folded, stats, budget, depth));
                    }
                }
                let (first, first_stats) = (folds[0].0.clone(), folds[0].1);
                for (folded, stats, budget, depth) in folds {
                    let at =
                        format!("{} prefix {} budget {} depth {}", metric.name(), consumed, budget, depth);
                    prop_assert_eq!(&folded, &first, "{}", at);
                    prop_assert_eq!(stats, first_stats, "{}", at);
                }
                prop_assert_eq!(first_stats.rows_quantized > 0, quantize && first_stats.clusters_visited > 0);
                states = first;
                consumed += chunk.rows();
            }
            let table = snoopy_knn::NeighborTable::from_states(&states);
            let reference = knn_reference(train_x.view(), test_x.view(), metric, 4);
            prop_assert_eq!(table, reference, "{}", metric.name());
        }
    }
}

/// Deterministic degenerate shapes the proptest ranges cannot hit exactly:
/// one row (nlist > n), nlist = 1 (a single cluster degenerates to an
/// exhaustive scan and must still be exact), and zero queries (every
/// constructor builds the same empty table) — at a zero and an unbounded
/// budget, at prefetch depths 0 and 2.
#[test]
fn degenerate_single_row_and_single_cluster() {
    let (one, _) = cloud(1, 1, 3, 2);
    let (queries, _) = cloud(2, 5, 3, 2);
    let (train_x, _) = cloud_with_ties(3, 50, 4, 3);
    let (test_x, _) = cloud(4, 9, 4, 3);
    let no_queries = test_x.view().slice_rows(0, 0);
    for metric in prunable_metrics() {
        let reference = knn_reference(train_x.view(), no_queries, metric, 7);
        assert_eq!(reference.num_queries(), 0);
        let engine = EvalEngine::default();
        assert_eq!(engine.topk(train_x.view(), no_queries, metric, 7), reference, "{}", metric.name());
        for budget in [0, usize::MAX] {
            for depth in [0usize, 2] {
                let mut paged = ShardedIndex::build(one.view(), metric, 8, budget).with_prefetch_depth(depth);
                assert_eq!(paged.num_clusters(), 1);
                assert_eq!(
                    paged.topk(queries.view(), 3),
                    knn_reference(one.view(), queries.view(), metric, 3)
                );
                let mut paged =
                    ShardedIndex::build(train_x.view(), metric, 1, budget).with_prefetch_depth(depth);
                assert_eq!(paged.num_clusters(), 1);
                assert_eq!(
                    paged.topk(test_x.view(), 7),
                    knn_reference(train_x.view(), test_x.view(), metric, 7)
                );
                let (table, stats) = paged.topk_with_stats(no_queries, 7);
                assert_eq!(table.num_queries(), 0);
                assert_eq!(table, reference);
                assert_eq!(stats, PruneStats::default());
            }
        }
    }
}
