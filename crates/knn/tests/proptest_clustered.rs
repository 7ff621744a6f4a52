//! Property tests pinning the exactness guarantee of the pruned index: the
//! k-means + triangle-inequality-pruned [`ShardedIndex`] is **bit-identical**
//! to the serial sort-based reference (and hence to the exhaustive engine)
//! for every prunable metric, k ∈ {1, 3, 10, len}, arbitrary `nlist`
//! (including `nlist > n`), duplicate rows, single-cluster partitions, and
//! the training rows queried against themselves (duplicates tie at distance
//! zero) — at an unbounded budget (every visited shard stays resident) and
//! at a two-shard budget (eviction churn mid-query) — the same way
//! `proptest_knn.rs` pinned the parallel engine. Paging changes time, never
//! work: tables and every [`PruneStats`] counter are equal at every budget.

use proptest::prelude::*;
use snoopy_knn::engine::knn_reference;
use snoopy_knn::{EvalEngine, Metric, PruneStats, ShardedIndex};
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
    /// duplicated rows so the lexicographic tie-break is exercised — also
    /// for the training rows queried against themselves, where every row
    /// and its duplicates sit at distance zero and resolve to the lowest
    /// index.
    #[test]
    fn clustered_topk_equals_reference(
        seed in 0u64..400,
        n in 1usize..90,
        nlist in 1usize..64,
    ) {
        let (train_x, _) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, _) = cloud(seed ^ 0x77, 17, 5, 3);
        for metric in prunable_metrics() {
            for budget in budgets(train_x.view(), nlist) {
                let mut index = ShardedIndex::build(train_x.view(), metric, nlist, budget);
                prop_assert!(index.num_clusters() <= n.min(nlist));
                for k in [1usize, 3, 10, n] {
                    for queries in [test_x.view(), train_x.view()] {
                        let got = index.topk(queries, k);
                        let reference = knn_reference(train_x.view(), queries, metric, k);
                        prop_assert_eq!(
                            got, reference, "metric {} k {} nlist {} budget {} queries {}",
                            metric.name(), k, nlist, budget, queries.rows()
                        );
                    }
                }
            }
        }
    }

    /// Paging invariance: paging changes time, never work. A cold
    /// `topk_with_stats` at budget 0 (each fault evicts the previous shard),
    /// a two-shard budget and an unbounded one returns the reference table
    /// and the same [`PruneStats`], counter for counter.
    #[test]
    fn paging_invariance_across_budgets(
        seed in 0u64..300,
        n in 1usize..90,
        nlist in 1usize..12,
    ) {
        let (train_x, _) = cloud_with_ties(seed, n, 4, 3);
        let (test_x, _) = cloud(seed ^ 0x5eed, 13, 4, 3);
        let [unbounded, two_shards] = budgets(train_x.view(), nlist);
        for metric in prunable_metrics() {
            let reference = knn_reference(train_x.view(), test_x.view(), metric, 4);
            let mut first: Option<PruneStats> = None;
            for budget in [0, two_shards, unbounded] {
                let mut index = ShardedIndex::build(train_x.view(), metric, nlist, budget);
                let (table, stats) = index.topk_with_stats(test_x.view(), 4);
                let at = format!("{} budget {}", metric.name(), budget);
                prop_assert_eq!(&table, &reference, "{}", at);
                prop_assert_eq!(stats, *first.get_or_insert(stats), "{}", at);
            }
        }
    }
}

/// Deterministic degenerate shapes the proptest ranges cannot hit exactly:
/// one row (nlist > n), nlist = 1 (a single cluster degenerates to an
/// exhaustive scan and must still be exact), and zero queries (every
/// constructor builds the same empty table) — at a zero and an unbounded
/// budget.
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
            let mut paged = ShardedIndex::build(one.view(), metric, 8, budget);
            assert_eq!(paged.num_clusters(), 1);
            assert_eq!(paged.topk(queries.view(), 3), knn_reference(one.view(), queries.view(), metric, 3));
            let mut paged = ShardedIndex::build(train_x.view(), metric, 1, budget);
            assert_eq!(paged.num_clusters(), 1);
            assert_eq!(paged.topk(test_x.view(), 7), knn_reference(train_x.view(), test_x.view(), metric, 7));
            let (table, stats) = paged.topk_with_stats(no_queries, 7);
            assert_eq!(table.num_queries(), 0);
            assert_eq!(table, reference);
            assert_eq!(stats, PruneStats::default());
        }
    }
}
