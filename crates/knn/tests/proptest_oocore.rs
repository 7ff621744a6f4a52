//! Property-based pin of the out-of-core contract: a dataset written to the
//! versioned disk format and reopened as an mmap-backed view is
//! **bit-identical** to the in-memory matrix through every consumer — the
//! exhaustive engine, the clustered and quantized indexes, the
//! [`IncrementalTopK`] append/evict paths, and the shard-paged
//! [`ShardedIndex`] under budgets small enough to force eviction
//! mid-query. Backing must be invisible: same bytes in, same bits out.

use proptest::prelude::*;
use snoopy_knn::{ClusteredIndex, EvalBackend, EvalEngine, IncrementalTopK, Metric, ShardedIndex};
use snoopy_linalg::disk::{DiskDataset, DiskLabels};
use snoopy_testutil::{cloud_with_ties, TempDir};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Disk-backed train/query views equal the in-memory ones bit for bit
    /// through the exhaustive, clustered, and quantized paths, plus the
    /// sharded index under an eviction-forcing budget — which also does the
    /// resident index's pruning work, visit for visit.
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

        let engine = EvalEngine::parallel();
        for metric in Metric::all() {
            for backend in [
                EvalBackend::Exhaustive,
                EvalBackend::clustered(nlist),
                EvalBackend::quantized(nlist),
            ] {
                let memory = engine.topk_with_backend(train.view(), queries.view(), metric, k, backend);
                let disk = engine.topk_with_backend(
                    disk_train.view(),
                    disk_queries.view(),
                    metric,
                    k,
                    backend,
                );
                prop_assert_eq!(&disk, &memory, "metric {} backend {}", metric.name(), backend.name());
            }
        }

        // The shard-paged index over the mapped view, with a budget of
        // roughly two shards so most queries evict mid-flight.
        let shard_bytes = (n / nlist).max(1) * d * 4;
        for quantize in [false, true] {
            for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
                let reference = engine.topk_with_backend(
                    train.view(), queries.view(), metric, k, EvalBackend::clustered(nlist),
                );
                let mut sharded =
                    ShardedIndex::build(disk_train.view(), metric, nlist, 2 * shard_bytes);
                if quantize {
                    sharded = sharded.quantize();
                }
                prop_assert_eq!(
                    &sharded.topk(disk_queries.view(), k),
                    &reference,
                    "sharded metric {} quantize {}", metric.name(), quantize
                );
                let rb = sharded.resident_bytes();
                prop_assert!(
                    rb.peak <= rb.budget + rb.max_shard,
                    "peak {} budget {} max_shard {}", rb.peak, rb.budget, rb.max_shard
                );
                let loo_ref = engine.topk_loo_with_backend(
                    train.view(), metric, k, EvalBackend::clustered(nlist),
                );
                prop_assert_eq!(&sharded.topk_loo(disk_train.view(), k), &loo_ref);

                // Same pruning work as the resident index over the same
                // partition, at prefetch depths 0 and 2. Per-shard shadows
                // carry their own margins, so quantized runs pin only the
                // cluster visits and the phase-1 rows.
                let mut resident = ClusteredIndex::build(train.view(), metric, nlist);
                if quantize {
                    resident = resident.quantize();
                }
                for depth in [0usize, 2] {
                    let mut paged = ShardedIndex::build(disk_train.view(), metric, nlist, 2 * shard_bytes)
                        .with_prefetch_depth(depth);
                    if quantize {
                        paged = paged.quantize();
                    }
                    for (got, want) in [
                        (
                            paged.topk_with_stats(disk_queries.view(), k),
                            resident.topk_with_stats(queries.view(), k),
                        ),
                        (
                            paged.topk_loo_with_stats(disk_train.view(), k),
                            resident.topk_loo_with_stats(train.view(), k),
                        ),
                    ] {
                        prop_assert_eq!(&got.0, &want.0, "metric {} depth {}", metric.name(), depth);
                        if quantize {
                            prop_assert_eq!(got.1.clusters_visited, want.1.clusters_visited);
                            prop_assert_eq!(got.1.rows_quantized, want.1.rows_quantized);
                        } else {
                            prop_assert_eq!(got.1, want.1, "metric {} depth {}", metric.name(), depth);
                        }
                    }
                }
            }
        }
    }

    /// The prefetch pipeline is invisible in results: at every depth ×
    /// eviction-forcing budget the pipelined scan produces the depth-0
    /// serial scan's table bit for bit, the staging area drains, the
    /// counters balance (every speculative load ends committed or wasted,
    /// and faults + commits equal the serial fault count), and peak
    /// residency honours `budget + (1 + P) × max_shard`. The in-flight
    /// staging bound (never more than `P` shards' worth of staged bytes)
    /// is debug-asserted inside the cache on every commit/evict cycle,
    /// which these debug-built cases exercise on every query.
    #[test]
    fn prefetch_depths_are_bit_identical_to_serial(
        seed in 0u64..500,
        n in 60usize..160,
        d in 2usize..7,
        nlist in 3usize..9,
        k in 1usize..6,
        budget_shards in 1usize..4,
    ) {
        let (train, _) = cloud_with_ties(seed, n, d, 3);
        let (queries, _) = cloud_with_ties(seed ^ 0x00c0_4e5e, 13, d, 3);
        let dir = TempDir::new("proptest_oocore_pf");
        let train_path = dir.path().join("train.snpy");
        let query_path = dir.path().join("queries.snpy");
        DiskDataset::write(&train_path, train.view()).expect("write train");
        DiskDataset::write(&query_path, queries.view()).expect("write queries");
        let disk_train = DiskDataset::open(&train_path).expect("open train");
        let disk_queries = DiskDataset::open(&query_path).expect("open queries");

        let shard_bytes = (n / nlist).max(1) * d * 4;
        let budget = budget_shards * shard_bytes;
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let mut serial = ShardedIndex::build(disk_train.view(), metric, nlist, budget);
            let reference = serial.topk(disk_queries.view(), k);
            let serial_paging = serial.paging_stats();
            for depth in [1usize, 4] {
                let mut piped = ShardedIndex::build(disk_train.view(), metric, nlist, budget)
                    .with_prefetch_depth(depth);
                prop_assert_eq!(
                    &piped.topk(disk_queries.view(), k),
                    &reference,
                    "metric {} depth {}", metric.name(), depth
                );
                let paging = piped.paging_stats();
                prop_assert_eq!(
                    paging.shards_faulted + paging.prefetch_committed,
                    serial_paging.shards_faulted,
                    "every serial fault is a fault or a commit: {:?}", paging
                );
                prop_assert_eq!(paging.shards_evicted, serial_paging.shards_evicted);
                prop_assert_eq!(
                    paging.shards_prefetched,
                    paging.prefetch_committed + paging.prefetch_wasted,
                    "speculative loads must balance: {:?}", paging
                );
                let rb = piped.resident_bytes();
                prop_assert_eq!(rb.staged, 0, "staging must drain");
                prop_assert!(
                    rb.peak <= rb.budget + (1 + depth) * rb.max_shard,
                    "depth {}: peak {} budget {} max_shard {}",
                    depth, rb.peak, rb.budget, rb.max_shard
                );
            }
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
