//! Property-based pin of the out-of-core contract: a dataset written to the
//! versioned disk format and reopened as an mmap-backed view is
//! **bit-identical** to the in-memory matrix through every consumer — the
//! exhaustive engine, the [`IncrementalTopK`] append/evict paths, and the
//! pruned [`ShardedIndex`] under budgets small enough to force eviction
//! mid-query. Backing must be invisible: same bytes in,
//! same bits out.

use proptest::prelude::*;
use snoopy_knn::{EvalEngine, IncrementalTopK, Metric, ShardedIndex};
use snoopy_linalg::disk::{DiskDataset, DiskLabels};
use snoopy_testutil::{cloud_with_ties, TempDir};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disk-backed train/query views equal the in-memory ones bit for bit
    /// through the exhaustive engine and the pruned index: the index over
    /// the mapped view under an eviction-forcing budget returns the
    /// exhaustive table, and does the same pruning work — every
    /// [`snoopy_knn::PruneStats`] counter — as an unbounded index over the
    /// in-memory matrix.
    #[test]
    fn disk_views_match_memory_through_every_backend(
        seed in 0u64..500,
        n in 40usize..120,
        d in 2usize..7,
        nlist in 2usize..9,
        k in 1usize..6,
    ) {
        let (train, _) = cloud_with_ties(seed, n, d, 3);
        let (queries, _) = cloud_with_ties(seed ^ 0x00c0_4e5e, 11, d, 3);
        let dir = TempDir::new("proptest_oocore");
        let train_path = dir.path().join("train.snpy");
        let query_path = dir.path().join("queries.snpy");
        DiskDataset::write(&train_path, train.view()).expect("write train");
        DiskDataset::write(&query_path, queries.view()).expect("write queries");
        let disk_train = DiskDataset::open(&train_path).expect("open train");
        let disk_queries = DiskDataset::open(&query_path).expect("open queries");
        prop_assert_eq!(disk_train.view().data(), train.view().data());

        let engine = EvalEngine::default();
        for metric in Metric::all() {
            let memory = engine.topk(train.view(), queries.view(), metric, k);
            let disk = engine.topk(disk_train.view(), disk_queries.view(), metric, k);
            prop_assert_eq!(&disk, &memory, "metric {}", metric.name());
        }

        // The pruned index over the mapped view, with a budget of roughly
        // two shards so most queries evict mid-flight, against an unbounded
        // one over the in-memory matrix.
        let shard_bytes = (n / nlist).max(1) * d * 4;
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let reference = engine.topk(train.view(), queries.view(), metric, k);
            let mut resident = ShardedIndex::build(train.view(), metric, nlist, usize::MAX);
            let mut paged = ShardedIndex::build(disk_train.view(), metric, nlist, 2 * shard_bytes);
            let got = paged.topk_with_stats(disk_queries.view(), k);
            let want = resident.topk_with_stats(queries.view(), k);
            let at = format!("metric {}", metric.name());
            prop_assert_eq!(&got.0, &reference, "{}", at);
            prop_assert_eq!(&got.0, &want.0, "{}", at);
            prop_assert_eq!(got.1, want.1, "{}", at);
            let rb = paged.resident_bytes();
            prop_assert!(
                rb.peak <= rb.budget + rb.max_shard,
                "peak {} budget {} max_shard {}", rb.peak, rb.budget, rb.max_shard
            );
        }
    }

    /// The incremental state fed disk-backed batches (append + oldest-row
    /// eviction) tracks its memory-fed twin bit for bit at every step.
    #[test]
    fn incremental_append_evict_is_backing_oblivious(
        seed in 0u64..500,
        batch in 4usize..24,
        evict in 1usize..10,
        k in 1usize..4,
    ) {
        let n = 64;
        let (train_x, train_y) = cloud_with_ties(seed, n, 5, 3);
        let (test_x, test_y) = cloud_with_ties(seed ^ 0x7e57, 9, 5, 3);
        let dir = TempDir::new("proptest_oocore_inc");
        let train_path = dir.path().join("train.snpy");
        let labels_path = dir.path().join("train_labels.snpy");
        let test_path = dir.path().join("test.snpy");
        DiskDataset::write(&train_path, train_x.view()).expect("write train");
        DiskLabels::write(&labels_path, &train_y, 3).expect("write labels");
        DiskDataset::write(&test_path, test_x.view()).expect("write test");
        let disk_train = DiskDataset::open(&train_path).expect("open train");
        let disk_labels = DiskLabels::open(&labels_path).expect("open labels");
        let disk_test = DiskDataset::open(&test_path).expect("open test");
        prop_assert_eq!(disk_labels.labels(), &train_y[..]);

        for metric in Metric::all() {
            let mut from_memory = IncrementalTopK::new(test_x.clone(), test_y.clone(), metric, k)
                .with_eviction(1);
            let mut from_disk =
                IncrementalTopK::new(disk_test.view().to_matrix(), test_y.clone(), metric, k)
                    .with_eviction(1);
            let mut consumed = 0usize;
            while consumed < n {
                let end = (consumed + batch).min(n);
                from_memory.append(
                    train_x.view().slice_rows(consumed, end),
                    &train_y[consumed..end],
                );
                from_disk.append(
                    disk_train.view().slice_rows(consumed, end),
                    &disk_labels.labels()[consumed..end],
                );
                consumed = end;
                prop_assert_eq!(from_disk.table(), from_memory.table(), "append to {}", consumed);
                prop_assert_eq!(from_disk.error(), from_memory.error());
                if consumed < n {
                    let mem_report = from_memory.evict_oldest(evict);
                    let disk_report = from_disk.evict_oldest(evict);
                    prop_assert_eq!(disk_report, mem_report);
                    prop_assert_eq!(from_disk.table(), from_memory.table(), "evict at {}", consumed);
                }
            }
        }
    }
}
