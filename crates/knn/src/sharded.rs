//! The exact pruned index: a k-means coarse partition plus
//! triangle-inequality pruning, with each cluster paged in as a shard.
//!
//! The exhaustive [`EvalEngine`](crate::engine::EvalEngine) visits every
//! training row per query. On clustered embedding spaces most of that work
//! provably cannot change the answer: once a query holds `k` candidates,
//! whole clusters whose *lower bound* on any member's distance exceeds the
//! current k-th admitted distance can be skipped without looking at a
//! single row. [`ShardedIndex`] implements that path while keeping results
//! **bit-identical** to the exhaustive engine, over a borrowed source view:
//! an mmap-backed [`snoopy_linalg::disk::DiskDataset`] window for datasets
//! that do not fit in memory, or an in-memory view with
//! `budget_bytes = usize::MAX`. It keeps the partition resident and runs
//! the crate's one cluster-scan core (the crate-internal `bounds` module:
//! one visit-major loop, one f32 tile scan, and the derivation of every
//! bound they test), but materialises each cluster as an independent
//! **shard** — the gathered f32 member rows, their per-row centroid
//! distances and the kernel norm cache — that loads and evicts on demand
//! under a configurable resident byte budget. The visit loop obtains a
//! cluster from the pager, which faults its shard in on the calling thread
//! unless it is still resident.
//!
//! Queries go through one entry, [`ShardedIndex::topk_with_stats`]: a cold
//! top-k table of held-out query rows plus its [`PruneStats`] — clusters
//! visited vs total and rows scanned vs pruned — while [`PagingStats`]
//! counts the shard traffic.
//!
//! ## Visit-major paging
//!
//! A query sorts clusters by ascending triangle-inequality lower bound and
//! visits them in that order until the first cluster whose bound can no
//! longer beat its k-th admitted distance. The visit loop runs all queries
//! of a call together, grouped by cluster: each query waits on its next
//! unpruned cluster, and the loop sweeps the clusters in index order —
//! repeating the sweep until no query waits — obtaining each swept cluster
//! that has waiting queries **once** and scanning it for all of them. A
//! scanned query runs its own τ check on its next cluster and waits there,
//! or is done. Each query still visits exactly its own clusters in its own
//! bound order with the same τ at every check, so the table and every
//! [`PruneStats`] counter equal those of a query-at-a-time loop; only the
//! shard traffic changes. One sweep loads each cluster at most once, so a
//! call costs at most `nlist` shard loads per sweep, however many queries
//! visit a cluster and however small the budget: on a 32-cluster index at
//! an eighth of the payload, 256 queries pay ~70–100 loads, where visiting
//! them one query at a time would pay ~2,000.
//!
//! A shard is faulted in **only when its cluster is actually visited**, so
//! the bound still doubles as the paging schedule: clusters the bound
//! rejects for every query are never read off disk at all.
//!
//! ## Query fan-out
//!
//! The queries waiting on one shard are independent: each owns its top-k
//! state and reads the shard immutably. A visit therefore splits them into
//! [`snoopy_pool::workers`] chunks of the pool it runs on, one task per
//! chunk, each writing only its own queries' states and its own
//! [`PruneStats`] share (summed as integers afterwards). Shard faults and
//! LRU decisions stay on the calling thread, between visits, so paging is
//! identical at every worker count.
//!
//! ## Residency contract
//!
//! Shards are cached LRU under `budget_bytes`: after each fault the
//! least-recently-used shards are evicted (the just-faulted shard is
//! pinned) until the cache fits the budget again, so peak residency is at
//! most `budget + max_shard` — measured by [`ShardedIndex::resident_bytes`]
//! ([`PagedResidentBytes`]) *and* debug-asserted after every fault/evict
//! cycle, with fault and eviction traffic counted in [`PagingStats`].
//!
//! ## Exactness
//!
//! Results are **bit-identical** to the exhaustive engine: member order
//! within a shard ascends by original row index, every admitted distance
//! comes from the same [`MetricKernel`] expressions (which depend only on
//! the pair of rows, never on which buffer holds them), and every prune
//! decision is sound by the bounds of the scan core. Evicting and
//! re-faulting a shard recomputes identical bytes — gathers and per-row
//! geometry are deterministic functions of the source view — so the budget
//! and the pool's worker count change time, never work: tables and
//! [`PruneStats`] are equal at every budget and pool.
//!
//! [`MetricKernel`]: crate::kernel::MetricKernel

use crate::bounds::{
    euclid_f64, ClusterSlice, Partition, PruneStats, ResidentBytes, ScanRows, KMEANS_MAX_ITERS, KMEANS_SEED,
};
use crate::engine::{NeighborTable, TopKState};
use crate::metric::Metric;
use snoopy_linalg::kmeans::lloyd_kmeans;
use snoopy_linalg::DatasetView;

/// Paging counters accumulated by the shard cache over the index's
/// lifetime — the out-of-core counterpart of [`PruneStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Shards materialised from the source view (every load is a fault on
    /// the calling thread).
    pub shards_faulted: usize,
    /// Shards dropped by the LRU budget.
    pub shards_evicted: usize,
    /// Bytes paged in across all faults.
    pub bytes_faulted: usize,
    /// Bytes released across all evictions.
    pub bytes_evicted: usize,
    /// Always 0: the index has no prefetch pipeline, so every load is a
    /// fault. Kept so that callers written against the pipeline still
    /// build.
    pub shards_prefetched: usize,
    /// Always 0, like [`PagingStats::shards_prefetched`].
    pub prefetch_committed: usize,
}

/// [`ResidentBytes`] extended with the budget-vs-peak accounting of the
/// shard cache — what [`ShardedIndex::resident_bytes`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedResidentBytes {
    /// Currently-resident footprint, bucketed by role (`train_rows` and the
    /// per-row part of `row_meta` cover resident shards only; `centroids`
    /// and `row_meta`'s member ids cover the always-resident index
    /// metadata).
    pub resident: ResidentBytes,
    /// The configured shard-cache budget in bytes.
    pub budget: usize,
    /// High-water mark of resident shard bytes since build.
    pub peak: usize,
    /// Largest single shard materialised so far — `peak ≤ budget +
    /// max_shard` is the cache's residency contract.
    pub max_shard: usize,
}

/// One materialised cluster: the gathered member rows, ascending by
/// original row index, plus everything a scan derives from them. Rebuilt
/// deterministically on every fault, so eviction never loses information.
struct Shard {
    rows: ScanRows,
    /// Resident footprint of this shard.
    bytes: usize,
    /// LRU clock value of the last fault or visit.
    last_use: u64,
}

/// Everything a shard load reads: the source view and the partition.
struct ShardLoader<'p> {
    source: DatasetView<'p>,
    part: &'p Partition,
}

impl<'p> ShardLoader<'p> {
    /// Cluster `c`'s member ids.
    fn ids(&self, c: usize) -> &'p [usize] {
        let part = self.part;
        &part.members[part.cluster(c)]
    }

    /// Gathers cluster `c`'s shard from the source view. Deterministic: the
    /// same ids against the same view always produce the same bytes, which
    /// is what makes evict-then-refault invisible in the results.
    fn load(&self, c: usize) -> Shard {
        let data = self.source.select_rows(self.ids(c));
        let centroid = self.part.centroids.row(c);
        let row_center = data.rows_iter().map(|r| euclid_f64(r, centroid)).collect();
        let rows = ScanRows::new(self.part.metric(), data, row_center);
        let mut rb = ResidentBytes::default();
        rows.add_bytes(&mut rb);
        Shard { bytes: rb.total(), rows, last_use: 0 }
    }
}

/// The LRU shard cache: one slot per cluster, a resident-byte ledger, and
/// the paging counters.
struct ShardCache {
    resident: Vec<Option<Shard>>,
    resident_bytes: usize,
    peak_resident: usize,
    max_shard_bytes: usize,
    budget: usize,
    tick: u64,
    stats: PagingStats,
}

impl ShardCache {
    fn new(clusters: usize, budget: usize) -> Self {
        ShardCache {
            resident: (0..clusters).map(|_| None).collect(),
            resident_bytes: 0,
            peak_resident: 0,
            max_shard_bytes: 0,
            budget,
            tick: 0,
            stats: PagingStats::default(),
        }
    }

    /// Folds the current resident footprint into the high-water mark and
    /// debug-asserts the residency contract: resident bytes fit `budget +
    /// max_shard` (one pinned over-budget shard allowed).
    fn note_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident_bytes);
        debug_assert!(
            self.resident_bytes <= self.budget.saturating_add(self.max_shard_bytes),
            "resident shard bytes {} exceed budget {} + max_shard {}",
            self.resident_bytes,
            self.budget,
            self.max_shard_bytes
        );
    }

    /// Makes cluster `c`'s shard resident, marks it used and returns it. On
    /// a miss it faults the shard in through `load` in one
    /// evict→charge→evict sequence with one LRU clock tick: the fresh shard
    /// is pinned while LRU shards are evicted until the cache fits the
    /// budget again.
    fn obtain(&mut self, c: usize, load: impl FnOnce() -> Shard) -> &Shard {
        self.tick += 1;
        if self.resident[c].is_none() {
            // Make room first: a visit's scans all finish before the next
            // shard is obtained, so even a previously-pinned over-budget
            // shard is evictable now. This keeps the peak at `budget + one
            // shard` rather than `budget + two`.
            self.evict_over_budget(usize::MAX);
            let shard = load();
            self.stats.shards_faulted += 1;
            self.stats.bytes_faulted += shard.bytes;
            self.max_shard_bytes = self.max_shard_bytes.max(shard.bytes);
            self.resident_bytes += shard.bytes;
            self.resident[c] = Some(shard);
            self.note_peak(); // transient charge-before-evict state counts
            self.evict_over_budget(c);
            self.note_peak();
        }
        let shard = self.resident[c].as_mut().expect("shard resident after fault");
        shard.last_use = self.tick;
        shard
    }

    /// Evicts least-recently-used shards (never `pin`, the shard being
    /// scanned) until the ledger fits the budget. A single shard larger
    /// than the whole budget stays resident alone — the `budget + one
    /// shard` peak contract.
    fn evict_over_budget(&mut self, pin: usize) {
        while self.resident_bytes > self.budget {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != pin && s.is_some())
                .min_by_key(|(_, s)| s.as_ref().expect("resident").last_use)
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            let bytes = self.resident[v].take().expect("victim resident").bytes;
            self.resident_bytes -= bytes;
            self.stats.shards_evicted += 1;
            self.stats.bytes_evicted += bytes;
        }
    }
}

/// How the visit loop obtains the rows of a visited cluster: from the
/// cache, faulting the cluster's shard in on a miss.
pub(crate) struct Pager<'p> {
    loader: ShardLoader<'p>,
    cache: &'p mut ShardCache,
}

impl Pager<'_> {
    /// Cluster `c`'s shard, called once per sweep visit.
    pub fn obtain(&mut self, c: usize) -> ClusterSlice<'_> {
        let Pager { loader, cache } = self;
        let shard = cache.obtain(c, || loader.load(c));
        ClusterSlice { rows: &shard.rows, ids: loader.ids(c) }
    }
}

/// The shard-paged exact pruned index over a borrowed source view (an
/// mmap-backed window, or an in-memory view with an unbounded budget). See
/// the [module docs](self) for the paging and exactness contracts.
pub struct ShardedIndex<'a> {
    /// The source rows — on the out-of-core path, a window over a
    /// memory-mapped [`snoopy_linalg::disk::DiskDataset`].
    source: DatasetView<'a>,
    /// Centroids, radii, member ids and prune constants — always resident.
    part: Partition,
    cache: ShardCache,
}

impl<'a> ShardedIndex<'a> {
    /// Builds a shard-paged index over `source` with (at most) `nlist`
    /// k-means clusters and an LRU shard cache of `budget_bytes`; the
    /// k-means assignment passes split over the current pool's workers. The build
    /// streams the source twice (k-means plus one radii/member pass) and
    /// materialises no row buffer — per-row residency starts at one `usize`
    /// id.
    ///
    /// # Panics
    /// Panics for [`Metric::Cosine`] (not triangle-prunable) or an empty
    /// `source`.
    pub fn build(source: DatasetView<'a>, metric: Metric, nlist: usize, budget_bytes: usize) -> Self {
        assert!(metric != Metric::Cosine, "cosine dissimilarity is not triangle-prunable");
        assert!(!source.is_empty(), "cannot build a sharded index over an empty dataset");
        let km = lloyd_kmeans(source, nlist, KMEANS_MAX_ITERS, KMEANS_SEED);
        // Per-row centroid distances are shard metadata — recomputed at
        // fault, not stored.
        let part = Partition::new(source, metric, &km.centroids, &km.assignments);
        let cache = ShardCache::new(part.num_clusters(), budget_bytes);
        ShardedIndex { source, part, cache }
    }

    /// Number of indexed source rows.
    pub fn len(&self) -> usize {
        self.part.members.len()
    }

    /// Whether the index is empty (never — build rejects empty sources —
    /// but the standard pair keeps clippy and callers honest).
    pub fn is_empty(&self) -> bool {
        self.part.members.is_empty()
    }

    /// Number of (non-empty) clusters = number of shards.
    pub fn num_clusters(&self) -> usize {
        self.part.num_clusters()
    }

    /// The metric the index was built for.
    pub fn metric(&self) -> Metric {
        self.part.metric()
    }

    /// The configured shard-cache budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.cache.budget
    }

    /// Returns the index unchanged: there is no prefetch pipeline, and
    /// every shard faults on the calling thread whatever `depth` is. Kept
    /// so that callers written against the pipeline still build.
    pub fn with_prefetch_depth(self, _depth: usize) -> Self {
        self
    }

    /// Returns the index unchanged: every visited cluster goes through the
    /// one f32 scan. Kept so that callers written against the int8 shadow
    /// still build.
    pub fn quantize(self) -> Self {
        self
    }

    /// Cumulative paging counters since build.
    pub fn paging_stats(&self) -> PagingStats {
        self.cache.stats
    }

    /// The current resident footprint, the budget, and the peak — the
    /// residency contract is `peak ≤ budget + max_shard`.
    pub fn resident_bytes(&self) -> PagedResidentBytes {
        let mut rb = ResidentBytes {
            centroids: self.part.geometry_bytes(),
            row_meta: self.part.members.len() * size_of::<usize>(),
            ..ResidentBytes::default()
        };
        for shard in self.cache.resident.iter().flatten() {
            shard.rows.add_bytes(&mut rb);
        }
        PagedResidentBytes {
            resident: rb,
            budget: self.cache.budget,
            peak: self.cache.peak_resident,
            max_shard: self.cache.max_shard_bytes,
        }
    }

    /// Top-k neighbour table for every query, from a cold start —
    /// bit-identical to [`EvalEngine::topk`](crate::engine::EvalEngine::topk) on the
    /// same data.
    pub fn topk(&mut self, queries: DatasetView<'_>, k: usize) -> NeighborTable {
        self.topk_with_stats(queries, k).0
    }

    /// [`ShardedIndex::topk`] plus the pruning counters (paging counters
    /// accumulate on the index — [`ShardedIndex::paging_stats`]). Each
    /// visited shard's waiting queries scan in one chunk per worker of the
    /// current pool (see the [module docs](self)).
    ///
    /// # Panics
    /// Panics on a query/index dimension mismatch.
    pub fn topk_with_stats(&mut self, queries: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        assert_eq!(queries.cols(), self.source.cols(), "query/train dimensionality mismatch");
        let mut states = vec![TopKState::new(k.max(1)); queries.rows()];
        let ShardedIndex { source, part, cache } = self;
        let mut pager = Pager { loader: ShardLoader { source: *source, part }, cache };
        let stats = part.update_topk(&mut pager, queries, &mut states);
        (NeighborTable::from_states(&states), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::knn_reference;
    use snoopy_linalg::Matrix;

    fn blobs(n: usize, d: usize, centers: usize, seed: u64) -> Matrix {
        snoopy_testutil::blob_cloud(seed, n, d, centers, 6.0, 0.2)
    }

    #[test]
    fn sharded_matches_reference_under_tight_budget() {
        let train = blobs(400, 8, 8, 1);
        let queries = blobs(60, 8, 8, 2);
        // A budget of roughly one shard forces eviction churn on every query.
        let budget = 8 * 8 * 4 * 60;
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let mut index = ShardedIndex::build(train.view(), metric, 8, budget);
            for k in [1usize, 3, 10, 400] {
                let got = index.topk(queries.view(), k);
                assert_eq!(got, knn_reference(train.view(), queries.view(), metric, k), "k {k}");
            }
            assert!(index.paging_stats().shards_evicted >= 2, "{:?}", index.paging_stats());
        }
    }

    #[test]
    fn residency_contract_peak_at_most_budget_plus_one_shard() {
        let train = blobs(800, 10, 16, 31);
        let queries = blobs(64, 10, 16, 32);
        for budget in [1usize, 40 * 10 * 4, 4 * 50 * 10 * 4, usize::MAX / 2] {
            let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 16, budget);
            index.topk(queries.view(), 5);
            let rb = index.resident_bytes();
            assert!(
                rb.peak <= rb.budget.saturating_add(rb.max_shard),
                "peak {} budget {} max_shard {}",
                rb.peak,
                rb.budget,
                rb.max_shard
            );
            assert!(rb.resident.train_rows + rb.resident.row_meta > 0 || rb.budget == 1);
        }
    }

    #[test]
    fn never_visited_clusters_are_never_faulted() {
        // Well-separated blobs: the bound rejects most clusters, and a
        // rejected cluster must cost zero I/O.
        let train = blobs(600, 6, 12, 41);
        let queries = blobs(30, 6, 12, 42);
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, usize::MAX / 2);
        let (_, stats) = index.topk_with_stats(queries.view(), 3);
        let paging = index.paging_stats();
        assert!(stats.cluster_prune_rate() > 0.5, "{stats:?}");
        // With an unbounded budget nothing evicts, so distinct faulted
        // shards = clusters ever visited ≤ clusters visited across queries.
        assert_eq!(paging.shards_evicted, 0);
        assert!(paging.shards_faulted <= index.num_clusters());
        assert!(paging.shards_faulted < 12, "pruned clusters must stay on disk: {paging:?}");
    }

    #[test]
    #[should_panic(expected = "not triangle-prunable")]
    fn cosine_sharded_panics() {
        let data = blobs(10, 3, 2, 1);
        let _ = ShardedIndex::build(data.view(), Metric::Cosine, 2, usize::MAX / 2);
    }

    #[test]
    fn pruning_actually_happens_on_separated_blobs() {
        let train = blobs(600, 6, 12, 3);
        let queries = blobs(40, 6, 12, 4);
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, usize::MAX);
        let (table, stats) = index.topk_with_stats(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        assert!(stats.clusters_visited < stats.clusters_total, "{stats:?}");
        assert!(stats.cluster_prune_rate() > 0.5, "rate {} ({stats:?})", stats.cluster_prune_rate());
        assert!(stats.rows_scanned + stats.rows_pruned <= stats.rows_total);
        assert_eq!(stats.queries, 40);
    }

    #[test]
    fn degenerate_shapes_nlist_exceeding_n_single_cluster_duplicates() {
        // n < nlist: every row may become its own cluster.
        let tiny = blobs(5, 4, 2, 9);
        let q = blobs(7, 4, 2, 10);
        for nlist in [1usize, 5, 64] {
            let mut index = ShardedIndex::build(tiny.view(), Metric::SquaredEuclidean, nlist, usize::MAX);
            assert!(index.num_clusters() <= 5);
            assert_eq!(
                index.topk(q.view(), 3),
                knn_reference(tiny.view(), q.view(), Metric::SquaredEuclidean, 3)
            );
        }
        // All-identical rows: ties must resolve to the lowest original index.
        let dup = Matrix::from_fn(30, 4, |_, _| 2.5);
        let mut index = ShardedIndex::build(dup.view(), Metric::Euclidean, 4, usize::MAX);
        let table = index.topk(q.view().slice_rows(0, 3), 6);
        for qi in 0..3 {
            let idx: Vec<usize> = table.neighbors(qi).iter().map(|h| h.index).collect();
            assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn subnormal_underflow_does_not_prune_zero_distance_ties() {
        // Both rows are within ~2e-23 of the query, so their f32 squared
        // distances (≈ 3e-46, 5e-46) round to exactly 0.0 — the exhaustive
        // kernel admits the LOWEST index by the (distance, index) tie-break.
        // Their pairwise squared distance (1.6e-45) stays a non-zero
        // subnormal, so k-means keeps them in separate clusters, and the
        // query visits index 1's cluster first (smaller centroid distance)
        // before admitting τ = 0. The f64 bound to index 0's cluster stays
        // positive, so a purely relative slack would prune the
        // lower-index-bearing cluster; the absolute guard must keep it
        // scanned.
        let train = Matrix::from_rows(&[vec![2.2e-23f32, 0.0], vec![-1.8e-23, 0.0]]);
        let queries = Matrix::from_rows(&[vec![0.0f32, 0.0]]);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let reference = knn_reference(train.view(), queries.view(), metric, 1);
            assert_eq!(reference.first(0).expect("one hit").index, 0, "reference ties to index 0");
            let mut index = ShardedIndex::build(train.view(), metric, 2, usize::MAX);
            assert_eq!(index.num_clusters(), 2);
            assert_eq!(index.topk(queries.view(), 1), reference, "metric {}", metric.name());
        }
    }
}
