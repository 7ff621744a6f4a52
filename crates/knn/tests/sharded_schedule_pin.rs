//! Pins the pruned index's work on a Gaussian-mixture input: for two seeds
//! and k = 1 and 10, the table's FNV-1a hash and every [`PruneStats`]
//! counter equal fixed values at a budget of about an eighth
//! of the payload, at two shards and unbounded, on pools of 1, 2 and 3
//! workers. Paging changes time, never work: the visit schedule decides
//! which shard loads serve which queries, and no schedule may move a hit or
//! a counter.
//!
//! Within one (seed, budget) cell the paging counters must also
//! agree: every pool faults and evicts the same shards, and at the eighth
//! budget one call pays at most `4 × nlist` shard faults. A failure prints
//! the current pin table.

use snoopy_knn::{Metric, NeighborTable, PagingStats, PruneStats, ShardedIndex};
use snoopy_pool::ThreadPool;

const TRAIN: usize = 8_192;
const QUERIES: usize = 256;
const DIM: usize = 16;
const NLIST: usize = 32;

/// One pinned cell: seed, k, table hash, and the `PruneStats` counters in
/// field order (`queries`, `clusters_visited`, `clusters_total`,
/// `rows_scanned`, `rows_pruned`, `rows_total`). Recorded from the
/// query-at-a-time visit loop the visit-major sweep replaced.
type Pin = (u64, usize, u64, [usize; 6]);

const PINS: [Pin; 4] = [
    (1, 1, 0x7005_afac_7e07_34d7, [256, 2071, 8192, 521986, 7823, 2097152]),
    (1, 10, 0xefe4_cdaa_5ba7_e8fe, [256, 2109, 8192, 524986, 14462, 2097152]),
    (2, 1, 0xbf26_cd64_daae_2cb9, [256, 2048, 8192, 521305, 2983, 2097152]),
    (2, 10, 0x1e4f_0240_9f14_7670, [256, 2048, 8192, 524047, 241, 2097152]),
];

/// One call's table hash, `PruneStats` counters and paging delta.
type Call = (u64, [usize; 6], PagingStats);

/// FNV-1a 64 over the table's shape and every hit's index and distance bits.
fn fnv1a(table: &NeighborTable) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let shape = [table.num_queries() as u64, table.k() as u64];
    let hits = (0..table.num_queries()).flat_map(|q| table.neighbors(q));
    let bytes =
        shape.iter().flat_map(|v| v.to_le_bytes()).chain(hits.flat_map(|h| {
            (h.index as u64).to_le_bytes().into_iter().chain(h.distance.to_bits().to_le_bytes())
        }));
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

fn counters(s: &PruneStats) -> [usize; 6] {
    [s.queries, s.clusters_visited, s.clusters_total, s.rows_scanned, s.rows_pruned, s.rows_total]
}

/// The paging counters one call added.
fn delta(after: PagingStats, before: PagingStats) -> PagingStats {
    PagingStats {
        shards_faulted: after.shards_faulted - before.shards_faulted,
        shards_evicted: after.shards_evicted - before.shards_evicted,
        bytes_faulted: after.bytes_faulted - before.bytes_faulted,
        bytes_evicted: after.bytes_evicted - before.bytes_evicted,
        ..PagingStats::default()
    }
}

#[test]
fn paged_topk_is_pinned_across_budgets_and_pools() {
    let pools: Vec<ThreadPool> = [1, 2, 3].into_iter().map(ThreadPool::new).collect();
    let payload = TRAIN * DIM * size_of::<f32>();
    let budgets = [("eighth", payload / 8), ("two shards", 2 * payload / NLIST), ("unbounded", usize::MAX)];
    let mut actual: Vec<Pin> = Vec::new();
    for seed in [1u64, 2] {
        // A 4-component mixture: centres ~ N(0, 2.5²) per dimension, unit
        // within-component spread.
        let data = snoopy_testutil::blob_cloud(seed, TRAIN + QUERIES, DIM, 4, 2.5, 1.0);
        let (train, queries) =
            (data.view().slice_rows(0, TRAIN), data.view().slice_rows(TRAIN, TRAIN + QUERIES));
        let cells = actual.len();
        for (name, budget) in budgets {
            // Per pool: its worker count and one call per k.
            let runs: Vec<(usize, Vec<Call>)> = pools
                .iter()
                .map(|pool| {
                    let per_k = pool.install(|| {
                        let mut index = ShardedIndex::build(train, Metric::SquaredEuclidean, NLIST, budget);
                        [1usize, 10]
                            .into_iter()
                            .map(|k| {
                                let before = index.paging_stats();
                                let (table, stats) = index.topk_with_stats(queries, k);
                                (fnv1a(&table), counters(&stats), delta(index.paging_stats(), before))
                            })
                            .collect()
                    });
                    (pool.workers(), per_k)
                })
                .collect();
            let (_, first) = &runs[0];
            for (workers, per_k) in &runs {
                for (i, (call, call0)) in per_k.iter().zip(first).enumerate() {
                    let at = format!("seed {seed} budget {name} workers {workers} k-slot {i}");
                    // Hits, counters and paging are functions of the
                    // schedule, not of the pool.
                    assert_eq!(call, call0, "{at}");
                    let paging = call.2;
                    if name == "eighth" {
                        let faults = paging.shards_faulted;
                        assert!(faults <= 4 * NLIST, "{at}: {faults} shard faults, {paging:?}");
                    }
                }
            }
            let pins =
                [1usize, 10].into_iter().zip(first).map(|(k, &(hash, counts, _))| (seed, k, hash, counts));
            if actual.len() == cells {
                actual.extend(pins);
            } else {
                let pins: Vec<Pin> = pins.collect();
                assert_eq!(&actual[cells..], &pins[..], "seed {seed}: budget {name}");
            }
        }
    }
    assert_eq!(actual, PINS, "current pins:\n{actual:#?}");
}
