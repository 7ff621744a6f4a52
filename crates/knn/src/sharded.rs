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
//! one visit-major loop, one f32 tile scan, one int8 two-phase
//! scan, and the derivation of every bound they test), but materialises
//! each cluster as an independent **shard** — the gathered f32 member rows,
//! their per-row centroid distances, the kernel norm cache, and (when
//! quantized) the int8 shadow — that loads and evicts on demand under a
//! configurable resident byte budget. The visit loop obtains a cluster from
//! the pager, which commits the cluster's staged shard or faults it in and
//! then stages the clusters the loop reaches next.
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
//! [`PruneStats`] share (summed as integers afterwards). Shard loads, LRU
//! decisions and prefetch staging stay on the calling thread, between
//! visits, so paging is identical at every worker count.
//!
//! ## Residency contract
//!
//! Shards are cached LRU under `budget_bytes`: after each fault the
//! least-recently-used shards are evicted (the just-faulted shard is
//! pinned) until the cache fits the budget again. With prefetch off, peak
//! residency is therefore at most `budget + one shard`; with a prefetch
//! depth of `P`, the staging area adds at most `P` uncommitted shards, so
//! the contract becomes `peak ≤ budget + max_shard × (1 + P)` — measured by
//! [`ShardedIndex::resident_bytes`] ([`PagedResidentBytes`]) *and*
//! debug-asserted after every fault/commit/evict cycle, with fault,
//! eviction, and prefetch traffic counted in [`PagingStats`].
//!
//! ## Exactness
//!
//! Results are **bit-identical** to the exhaustive engine: member order
//! within a shard ascends by original row index, every admitted distance
//! comes from the same [`MetricKernel`] expressions (which depend only on
//! the pair of rows, never on which buffer holds them), and every prune
//! decision is sound by the bounds of the scan core. Evicting and
//! re-faulting a shard recomputes identical bytes — gathers, per-row
//! geometry and int8 codes are deterministic functions of the source view
//! and the frozen quantizer — and the int8 margin rests on the quantizer's
//! index-wide code-norm bound, so the budget, the prefetch depth and the
//! pool's worker count change time, never work: tables and [`PruneStats`]
//! are equal at every budget, depth and pool.
//!
//! ## Pipelined prefetch
//!
//! The sweep knows which clusters it visits next: every cluster with a
//! waiting query will be visited, in sweep order.
//! [`ShardedIndex::set_prefetch_depth`] lets `snoopy-pool` workers
//! *materialise* the next of them while the current shard scans: after
//! each visit's shard is obtained, the index starts speculative loads for
//! the next `P` clusters with waiting queries, in sweep order, that are
//! neither resident nor already staged. Each staged cluster is certain to
//! be visited, so no load is wasted ([`PagingStats::prefetch_wasted`] stays
//! 0 and `shards_prefetched == prefetch_committed`). A prefetched shard is
//! bit-identical to a demand-faulted one — gather, per-row centroid
//! distances, norm cache, and int8 encode are deterministic functions of
//! the source view — so results cannot depend on what was staged.
//!
//! All LRU decisions stay on the calling thread: a speculative shard lives
//! in a bounded staging area (≤ `P` entries, never charged to the cache)
//! until its cluster is visited, at which point it is *committed* through
//! the same evict→charge→evict sequence a demand fault uses, with the same
//! LRU clock tick. Staging decisions read only the sweep and the residency
//! trace, so the cache's residency trace is identical at every prefetch
//! depth and every worker count, and so is the split between faults and
//! commits at a fixed depth.
//!
//! [`MetricKernel`]: crate::kernel::MetricKernel

use crate::bounds::{
    euclid_f64, ClusterSlice, Partition, PruneStats, ResidentBytes, ScanRows, KMEANS_MAX_ITERS, KMEANS_SEED,
};
use crate::engine::{NeighborTable, TopKState};
use crate::metric::Metric;
use crate::quantized::AffineQuantizer;
use snoopy_linalg::kmeans::lloyd_kmeans;
use snoopy_linalg::DatasetView;

/// Paging counters accumulated by the shard cache over the index's
/// lifetime — the out-of-core counterpart of [`PruneStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Shards materialised from the source view (cold faults).
    pub shards_faulted: usize,
    /// Shards dropped by the LRU budget.
    pub shards_evicted: usize,
    /// Bytes paged in across all faults.
    pub bytes_faulted: usize,
    /// Bytes released across all evictions.
    pub bytes_evicted: usize,
    /// Speculative shard loads submitted to the pool by the prefetch
    /// pipeline.
    pub shards_prefetched: usize,
    /// Prefetched shards whose cluster was visited: committed to the LRU
    /// cache in place of a demand fault.
    pub prefetch_committed: usize,
    /// Prefetched shards dropped without a commit. Always 0: the pipeline
    /// stages only clusters that queries wait on, each certain to be
    /// visited.
    pub prefetch_wasted: usize,
    /// Bytes materialised by prefetch tasks.
    pub bytes_prefetched: usize,
}

/// [`ResidentBytes`] extended with the budget-vs-peak accounting of the
/// shard cache — what [`ShardedIndex::resident_bytes`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedResidentBytes {
    /// Currently-resident footprint, bucketed by role (`train_rows`,
    /// `quantized_codes` and the per-row part of `quantized_meta` cover
    /// resident shards only; `centroids`, `row_meta`'s member ids and the
    /// affine parameters cover the always-resident index metadata).
    pub resident: ResidentBytes,
    /// The configured shard-cache budget in bytes.
    pub budget: usize,
    /// High-water mark of resident *plus staged* shard bytes since build.
    pub peak: usize,
    /// Bytes of materialised-but-uncommitted prefetched shards right now
    /// (non-zero only mid-call; every staged shard is committed before
    /// [`ShardedIndex::topk_with_stats`] returns).
    pub staged: usize,
    /// Largest single shard materialised so far —
    /// `peak ≤ budget + max_shard × (1 + prefetch_depth)` is the cache's
    /// residency contract.
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

/// Everything a shard load reads: the source view, the partition, and the
/// frozen quantizer.
#[derive(Clone, Copy)]
struct ShardLoader<'p> {
    source: DatasetView<'p>,
    part: &'p Partition,
    quantizer: Option<&'p AffineQuantizer>,
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
        let rows = ScanRows::new(self.part.metric(), data, row_center, self.quantizer);
        let mut rb = ResidentBytes::default();
        rows.add_bytes(&mut rb);
        Shard { bytes: rb.total(), rows, last_use: 0 }
    }
}

/// The borrow-erased description of one speculative [`ShardLoader::load`]
/// call, shipped to a pool worker as a `'static` task. Everything a load
/// reads is captured as raw parts (the quantizer is small and simply
/// cloned).
///
/// # Safety
/// `run` dereferences the captured pointers, so a job must not outlive the
/// buffers they point into. The prefetch pipeline guarantees that
/// structurally: every spawned job's [`snoopy_pool::JoinHandle`] is joined
/// before [`ShardedIndex::topk_with_stats`] returns (a staged cluster has
/// waiting queries, so its visit joins the slot before the loop ends, and
/// on unwinding a dropped handle waits), and for the whole call the index
/// is exclusively borrowed — `source` outlives the index by construction
/// (`'a`), and the partition is never mutated after build.
struct PrefetchJob {
    data: *const f32,
    data_len: usize,
    rows: usize,
    cols: usize,
    part: *const Partition,
    quantizer: Option<AffineQuantizer>,
    cluster: usize,
}

// SAFETY: the job only carries shared read-only borrows in pointer form;
// the data they point to (`[f32]` / `Partition`) is Sync, and the liveness
// obligation is discharged by the join-before-return rule above.
unsafe impl Send for PrefetchJob {}

impl PrefetchJob {
    /// Captures the load of cluster `c`'s shard.
    fn capture(loader: &ShardLoader<'_>, c: usize) -> Self {
        PrefetchJob {
            data: loader.source.data().as_ptr(),
            data_len: loader.source.data().len(),
            rows: loader.source.rows(),
            cols: loader.source.cols(),
            part: loader.part,
            quantizer: loader.quantizer.cloned(),
            cluster: c,
        }
    }

    /// # Safety
    /// Every captured pointer must still be live (see the type docs).
    unsafe fn run(&self) -> Shard {
        let data = std::slice::from_raw_parts(self.data, self.data_len);
        let source = DatasetView::from_raw(data, self.rows, self.cols);
        ShardLoader { source, part: &*self.part, quantizer: self.quantizer.as_ref() }.load(self.cluster)
    }
}

/// One staging-area slot: a speculative shard load that is either still in
/// flight on a pool worker or materialised and waiting for its cluster's
/// visit. Exactly one of the two fields is `Some`.
struct StagedSlot {
    cluster: usize,
    handle: Option<snoopy_pool::JoinHandle<Shard>>,
    shard: Option<Shard>,
}

/// The calling thread's view of the prefetch pipeline: at most
/// [`ShardCache::prefetch_depth`] slots, each owning one speculative load.
/// The prefetcher never touches the LRU cache's residency — it only hands
/// fully-materialised shards to [`ShardCache::obtain`] at visit time. It
/// stages only clusters that queries wait on, each certain to be visited,
/// so no load is wasted, and its decisions depend only on the
/// (deterministic) sweep and residency trace — never on worker timing — so
/// the pipeline issues the same loads at every worker count.
#[derive(Default)]
struct Prefetcher {
    slots: Vec<StagedSlot>,
}

impl Prefetcher {
    /// Joins one slot's in-flight handle, folding the materialised bytes
    /// into the prefetch ledgers (each spawned job passes through here
    /// exactly once, so `bytes_prefetched` covers every speculative load).
    fn join_handle(cache: &mut ShardCache, handle: snoopy_pool::JoinHandle<Shard>) -> Shard {
        let shard = handle.join();
        cache.stats.bytes_prefetched += shard.bytes;
        cache.max_shard_bytes = cache.max_shard_bytes.max(shard.bytes);
        shard
    }

    /// Takes the staged shard for cluster `c` if the pipeline holds one,
    /// joining it first when still in flight (the join *helps*, so even a
    /// one-worker pool makes progress). Returns `None` when `c` was never
    /// prefetched — the caller demand-faults as usual.
    fn take(&mut self, cache: &mut ShardCache, c: usize) -> Option<Shard> {
        let i = self.slots.iter().position(|s| s.cluster == c)?;
        let mut slot = self.slots.swap_remove(i);
        match slot.shard.take() {
            Some(shard) => {
                cache.staged_bytes -= shard.bytes;
                Some(shard)
            }
            None => Some(Self::join_handle(cache, slot.handle.take().expect("in-flight slot"))),
        }
    }

    /// Starts speculative loads for the first `depth` clusters of
    /// `upcoming` that are neither resident nor staged, while the pipeline
    /// has a free slot. Called after the current visit's shard is obtained
    /// and before it is scanned — that is the overlap. Also folds finished
    /// loads into the staged ledger.
    fn top_up(
        &mut self,
        cache: &mut ShardCache,
        loader: &ShardLoader<'_>,
        upcoming: impl Iterator<Item = usize>,
    ) {
        let depth = cache.prefetch_depth;
        if depth == 0 {
            return;
        }
        // Fold finished loads into the staged ledger (non-blocking).
        for slot in self.slots.iter_mut() {
            if slot.shard.is_none() && slot.handle.as_ref().expect("in-flight slot").is_finished() {
                let shard = Self::join_handle(cache, slot.handle.take().expect("in-flight slot"));
                cache.staged_bytes += shard.bytes;
                slot.shard = Some(shard);
                cache.note_peak();
            }
        }
        for c in upcoming.take(depth) {
            if self.slots.len() == depth {
                break;
            }
            if cache.resident[c].is_some() || self.slots.iter().any(|s| s.cluster == c) {
                continue;
            }
            let job = PrefetchJob::capture(loader, c);
            // SAFETY: joined before `topk_with_stats` returns — see `PrefetchJob`.
            let handle = snoopy_pool::spawn(move || unsafe { job.run() });
            cache.stats.shards_prefetched += 1;
            self.slots.push(StagedSlot { cluster: c, handle: Some(handle), shard: None });
        }
    }
}

/// The LRU shard cache: one slot per cluster, a resident-byte ledger, and
/// the paging counters.
struct ShardCache {
    resident: Vec<Option<Shard>>,
    resident_bytes: usize,
    /// Bytes of materialised-but-uncommitted prefetched shards (staging
    /// area ledger; never counted against `budget`).
    staged_bytes: usize,
    peak_resident: usize,
    max_shard_bytes: usize,
    budget: usize,
    /// Current prefetch pipeline depth `P` — bounds the staging area and
    /// widens the residency contract to `budget + max_shard × (1 + P)`.
    prefetch_depth: usize,
    tick: u64,
    stats: PagingStats,
}

impl ShardCache {
    fn new(clusters: usize, budget: usize) -> Self {
        ShardCache {
            resident: (0..clusters).map(|_| None).collect(),
            resident_bytes: 0,
            staged_bytes: 0,
            peak_resident: 0,
            max_shard_bytes: 0,
            budget,
            prefetch_depth: 0,
            tick: 0,
            stats: PagingStats::default(),
        }
    }

    /// Folds the current resident + staged footprint into the high-water
    /// mark and debug-asserts the residency contract: committed bytes fit
    /// `budget + max_shard` (one pinned over-budget shard allowed) and the
    /// staging area holds at most `P` shards' worth of bytes.
    fn note_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident_bytes + self.staged_bytes);
        debug_assert!(
            self.resident_bytes <= self.budget.saturating_add(self.max_shard_bytes),
            "committed shard bytes {} exceed budget {} + max_shard {}",
            self.resident_bytes,
            self.budget,
            self.max_shard_bytes
        );
        debug_assert!(
            self.staged_bytes <= self.prefetch_depth.saturating_mul(self.max_shard_bytes),
            "staged bytes {} exceed depth {} x max_shard {}",
            self.staged_bytes,
            self.prefetch_depth,
            self.max_shard_bytes
        );
    }

    /// Makes cluster `c`'s shard resident and marks it used. On a miss it
    /// admits `staged` (a prefetched shard, counted as a commit) or else
    /// materialises one through `load` (a demand fault), in one
    /// evict→charge→evict sequence with one LRU clock tick — so the
    /// residency trace is identical whether a shard arrived by fault or by
    /// prefetch. The fresh shard is pinned while LRU shards are evicted
    /// until the cache fits the budget again.
    fn obtain(&mut self, c: usize, staged: Option<Shard>, load: impl FnOnce() -> Shard) {
        debug_assert!(staged.is_none() || self.resident[c].is_none(), "staged cluster {c} already resident");
        self.tick += 1;
        if self.resident[c].is_none() {
            // Make room first: a visit's scans all finish before the next
            // shard is obtained, so even a previously-pinned over-budget
            // shard is evictable now. This keeps the peak at `budget + one
            // shard` rather than `budget + two`.
            self.evict_over_budget(usize::MAX);
            let shard = match staged {
                Some(shard) => {
                    self.stats.prefetch_committed += 1;
                    shard
                }
                None => {
                    let shard = load();
                    self.stats.shards_faulted += 1;
                    self.stats.bytes_faulted += shard.bytes;
                    self.max_shard_bytes = self.max_shard_bytes.max(shard.bytes);
                    shard
                }
            };
            self.resident_bytes += shard.bytes;
            self.resident[c] = Some(shard);
            self.note_peak(); // transient charge-before-evict state counts
            self.evict_over_budget(c);
            self.note_peak();
        }
        self.resident[c].as_mut().expect("shard resident after fault or commit").last_use = self.tick;
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

    /// Drops every resident shard (used when the quantizer changes so
    /// shards re-materialise with shadows). Counted as evictions.
    fn clear(&mut self) {
        for slot in self.resident.iter_mut() {
            if let Some(s) = slot.take() {
                self.resident_bytes -= s.bytes;
                self.stats.shards_evicted += 1;
                self.stats.bytes_evicted += s.bytes;
            }
        }
    }
}

/// How the visit loop obtains the rows of a visited cluster: it commits the
/// cluster's staged shard or faults it in, then stages the clusters the
/// sweep reaches next.
pub(crate) struct Pager<'p> {
    loader: ShardLoader<'p>,
    cache: &'p mut ShardCache,
    pf: Prefetcher,
}

impl<'p> Pager<'p> {
    /// The frozen quantizer every shard encodes against (`None` when the
    /// index is unquantized).
    pub fn quantizer(&self) -> Option<&'p AffineQuantizer> {
        self.loader.quantizer
    }

    /// Cluster `c`'s shard, called once per sweep visit. `upcoming` lists
    /// the other clusters queries wait on, in the order the sweep reaches
    /// them: every one will be visited, so the pipeline stages from its
    /// front while this visit scans.
    pub fn obtain(&mut self, c: usize, upcoming: impl Iterator<Item = usize>) -> ClusterSlice<'_> {
        let loader = self.loader;
        let staged = self.pf.take(self.cache, c);
        self.cache.obtain(c, staged, || loader.load(c));
        self.pf.top_up(self.cache, &loader, upcoming);
        let shard = self.cache.resident[c].as_ref().expect("shard resident after fault or commit");
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
    /// The frozen affine fitted over the *whole* source at
    /// [`ShardedIndex::quantize`] time — every shard encodes against it, so
    /// eviction and re-faulting cannot change any code, and its code-norm
    /// bound serves every shard's int8 margin.
    quantizer: Option<AffineQuantizer>,
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
        ShardedIndex { source, part, quantizer: None, cache }
    }

    /// Attaches the int8 quantization: fits the affine over the whole
    /// source (one streaming pass) and freezes it, so every shard —
    /// including ones re-faulted after eviction — encodes identically.
    /// Resident shards are dropped and re-materialise with shadows on next
    /// visit; visited clusters then run the two-phase int8-then-exact scan.
    /// Results stay bit-identical (the shadow only selects re-rank
    /// candidates); data past the overflow guard simply scans exact.
    pub fn quantize(mut self) -> Self {
        self.quantizer = AffineQuantizer::fit(self.source);
        self.cache.clear();
        self
    }

    /// Whether a frozen quantizer is attached (false when the overflow
    /// guard refused the data).
    pub fn is_quantized(&self) -> bool {
        self.quantizer.is_some()
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

    /// The current prefetch pipeline depth `P` (0 = every shard faults on
    /// the calling thread).
    pub fn prefetch_depth(&self) -> usize {
        self.cache.prefetch_depth
    }

    /// Sets the prefetch pipeline depth: the shards of up to `depth`
    /// upcoming clusters with waiting queries materialise on `snoopy-pool`
    /// workers while the current one scans (see the [module docs](self)).
    /// Depth 0 (the build default) faults every shard on the calling
    /// thread. Results are bit-identical at every depth and worker count;
    /// peak residency is bounded by `budget + max_shard × (1 + depth)`.
    pub fn set_prefetch_depth(&mut self, depth: usize) {
        self.cache.prefetch_depth = depth;
    }

    /// Builder-style [`ShardedIndex::set_prefetch_depth`].
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.set_prefetch_depth(depth);
        self
    }

    /// Cumulative paging counters since build.
    pub fn paging_stats(&self) -> PagingStats {
        self.cache.stats
    }

    /// The current resident footprint, the budget, and the peak — the
    /// residency contract is `peak ≤ budget + max_shard × (1 + prefetch_depth)`.
    pub fn resident_bytes(&self) -> PagedResidentBytes {
        let mut rb = ResidentBytes {
            quantized_meta: self.quantizer.as_ref().map_or(0, |q| q.param_bytes()),
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
            staged: self.cache.staged_bytes,
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
    /// current pool; with a non-zero [`ShardedIndex::set_prefetch_depth`]
    /// upcoming shards also materialise on pool workers (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics on a query/index dimension mismatch.
    pub fn topk_with_stats(&mut self, queries: DatasetView<'_>, k: usize) -> (NeighborTable, PruneStats) {
        assert_eq!(queries.cols(), self.source.cols(), "query/train dimensionality mismatch");
        let mut states = vec![TopKState::new(k.max(1)); queries.rows()];
        let ShardedIndex { source, part, quantizer, cache } = self;
        let mut pager = Pager {
            loader: ShardLoader { source: *source, part, quantizer: quantizer.as_ref() },
            pf: Prefetcher::default(),
            cache,
        };
        let stats = part.update_topk(&mut pager, queries, &mut states);
        // A staged cluster has waiting queries, so its visit took the slot.
        debug_assert!(pager.pf.slots.is_empty(), "a staged shard outlived the sweep");
        debug_assert_eq!(pager.cache.staged_bytes, 0, "staging ledger must drain to zero");
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
    fn quantized_sharded_stays_exact_and_pages() {
        let train = blobs(600, 12, 10, 21);
        let queries = blobs(50, 12, 10, 22);
        let budget = 3 * (600 / 10) * 12 * 4; // ~3 shards of f32 rows
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget).quantize();
        assert!(index.is_quantized());
        let reference = knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5);
        // The second call re-faults the shards the first one evicted.
        for _ in 0..2 {
            let (table, stats) = index.topk_with_stats(queries.view(), 5);
            assert_eq!(table, reference);
            assert!(stats.rows_quantized > 0, "shards must carry shadows: {stats:?}");
        }
        let paging = index.paging_stats();
        assert!(paging.shards_faulted > index.num_clusters(), "re-faults expected: {paging:?}");
        assert!(paging.shards_evicted >= 2, "{paging:?}");
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
    fn prefetch_matches_serial_bit_for_bit() {
        let train = blobs(500, 8, 10, 61);
        let queries = blobs(60, 8, 10, 62);
        let budget = 2 * (500 / 10) * 8 * 4; // ~2 shards: heavy eviction churn
        let mut serial = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget);
        let reference = serial.topk(queries.view(), 5);
        let serial_paging = serial.paging_stats();
        assert!(serial_paging.shards_evicted >= 2, "{serial_paging:?}");
        for depth in [1usize, 2, 8] {
            let mut piped = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget)
                .with_prefetch_depth(depth);
            assert_eq!(piped.prefetch_depth(), depth);
            assert_eq!(piped.topk(queries.view(), 5), reference, "depth {depth}");
            let paging = piped.paging_stats();
            // The LRU cache sees the same admission sequence whether a shard
            // arrived by fault or by commit, so the eviction trace is pinned.
            assert_eq!(paging.shards_evicted, serial_paging.shards_evicted, "depth {depth}");
            assert_eq!(
                paging.shards_faulted + paging.prefetch_committed,
                serial_paging.shards_faulted,
                "depth {depth}: every serial fault is either a fault or a commit"
            );
        }
    }

    #[test]
    fn prefetch_counters_balance_and_commit() {
        let train = blobs(600, 10, 12, 71);
        let queries = blobs(50, 10, 12, 72);
        let budget = 3 * (600 / 12) * 10 * 4;
        let mut index =
            ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, budget).with_prefetch_depth(4);
        let table = index.topk(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
        let paging = index.paging_stats();
        assert!(paging.prefetch_committed >= 1, "pipeline must land commits: {paging:?}");
        assert_eq!(paging.prefetch_wasted, 0, "only clusters queries wait on are staged: {paging:?}");
        assert_eq!(
            paging.shards_prefetched, paging.prefetch_committed,
            "every load is committed: {paging:?}"
        );
        assert!(paging.bytes_prefetched > 0, "{paging:?}");
        let rb = index.resident_bytes();
        assert_eq!(rb.staged, 0, "staging drains before topk_with_stats returns");
    }

    #[test]
    fn prefetch_residency_contract_holds() {
        let train = blobs(800, 10, 16, 81);
        let queries = blobs(64, 10, 16, 82);
        for depth in [1usize, 3] {
            for budget in [1usize, 40 * 10 * 4, 4 * 50 * 10 * 4] {
                let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 16, budget)
                    .with_prefetch_depth(depth);
                index.topk(queries.view(), 5);
                let rb = index.resident_bytes();
                let allowance = rb.max_shard.saturating_mul(1 + depth);
                assert!(
                    rb.peak <= rb.budget.saturating_add(allowance),
                    "depth {depth}: peak {} budget {} max_shard {}",
                    rb.peak,
                    rb.budget,
                    rb.max_shard
                );
            }
        }
    }

    #[test]
    fn prefetch_quantized_stays_exact() {
        let train = blobs(600, 12, 10, 91);
        let queries = blobs(50, 12, 10, 92);
        let budget = 3 * (600 / 10) * 12 * 4;
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 10, budget)
            .quantize()
            .with_prefetch_depth(2);
        let table = index.topk(queries.view(), 5);
        assert_eq!(table, knn_reference(train.view(), queries.view(), Metric::SquaredEuclidean, 5));
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

    #[test]
    fn quantized_subnormal_underflow_does_not_prune_zero_distance_ties() {
        // The quantized twin of the subnormal guard test: the int8 bound's
        // threshold path must also keep τ = 0 from pruning the lower-index
        // tie (the guard makes T ≥ √(guard) > any subnormal bound).
        let train = Matrix::from_rows(&[vec![2.2e-23f32, 0.0], vec![-1.8e-23, 0.0]]);
        let queries = Matrix::from_rows(&[vec![0.0f32, 0.0]]);
        for metric in [Metric::SquaredEuclidean, Metric::Euclidean] {
            let reference = knn_reference(train.view(), queries.view(), metric, 1);
            let mut index = ShardedIndex::build(train.view(), metric, 2, usize::MAX).quantize();
            assert!(index.is_quantized());
            assert_eq!(index.num_clusters(), 2);
            assert_eq!(index.topk(queries.view(), 1), reference, "metric {}", metric.name());
        }
    }

    #[test]
    fn quantized_scan_reranks_a_strict_subset_and_reports_phase_counters() {
        let train = blobs(800, 16, 12, 51);
        let queries = blobs(50, 16, 12, 52);
        let mut plain = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, usize::MAX);
        let mut quantized =
            ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 12, usize::MAX).quantize();
        let (table_p, stats_p) = plain.topk_with_stats(queries.view(), 5);
        let (table_q, stats_q) = quantized.topk_with_stats(queries.view(), 5);
        assert_eq!(table_p, table_q);
        assert_eq!(stats_p.rows_quantized, 0, "f32 path never counts phase 1");
        assert_eq!(stats_p.rerank_rate(), 0.0);
        assert!(stats_q.rows_quantized > 0, "{stats_q:?}");
        assert!(stats_q.rows_scanned < stats_q.rows_quantized, "int8 bound must prune: {stats_q:?}");
        assert!(stats_q.rerank_rate() < 1.0, "{stats_q:?}");
        assert_eq!(
            stats_q.rows_scanned + stats_q.rows_pruned,
            stats_q.rows_quantized,
            "every phase-1 row is re-ranked or pruned: {stats_q:?}"
        );
    }

    #[test]
    fn quantized_resident_bytes_measures_the_4x_scan_copy() {
        // Each training row queried against the index visits its own
        // cluster (a zero lower bound never prunes), and an unbounded budget
        // keeps every faulted shard resident.
        let train = blobs(300, 32, 6, 61);
        let mut plain = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 6, usize::MAX);
        plain.topk(train.view(), 1);
        let rb_plain = plain.resident_bytes().resident;
        assert_eq!(rb_plain.train_rows, 300 * 32 * 4);
        assert_eq!(rb_plain.quantized_codes, 0);
        assert_eq!(rb_plain.quantized_meta, 0);
        let mut quantized = plain.quantize();
        quantized.topk(train.view(), 1);
        let rb = quantized.resident_bytes().resident;
        assert_eq!(rb.train_rows, 300 * 32 * 4);
        assert_eq!(rb.quantized_codes * 4, rb.train_rows, "codes are exactly 4x smaller");
        // code norms + abs sums + radii (3 f32/row) + affine params (2 f32/dim).
        assert_eq!(rb.quantized_meta, 300 * 12 + 32 * 8);
        assert!(rb.total() > rb_plain.total());
        assert!(rb.centroids > 0 && rb.row_meta > 0);
    }

    #[test]
    fn quantized_extreme_magnitudes_fall_back_and_stay_exact() {
        // Data past the shadow's overflow guard (row norms ≈ √8·10¹⁸ >
        // MAX_SAFE_NORM) but still well inside the f32-finite regime the
        // exact kernel's error model requires: quantize() must refuse the
        // shadow and the scan must stay exact.
        let huge = Matrix::from_fn(40, 8, |r, c| if (r + c) % 2 == 0 { 1.0e18 } else { -1.0e18 });
        let mut index = ShardedIndex::build(huge.view(), Metric::SquaredEuclidean, 4, usize::MAX).quantize();
        assert!(!index.is_quantized(), "overflow guard must reject the shadow");
        let q = Matrix::from_fn(5, 8, |r, c| ((r * 8 + c) as f32).sin() * 1.0e18);
        assert_eq!(
            index.topk(q.view(), 3),
            knn_reference(huge.view(), q.view(), Metric::SquaredEuclidean, 3)
        );
        // Sane data, extreme query rows: those queries alone fall back
        // (`prepare_query` refuses norms past the guard, per query).
        let train = blobs(200, 8, 4, 71);
        let mut index = ShardedIndex::build(train.view(), Metric::SquaredEuclidean, 4, usize::MAX).quantize();
        assert!(index.is_quantized());
        let mut rows: Vec<Vec<f32>> = (0..4).map(|r| q.row(r).to_vec()).collect();
        rows.push(vec![2.0e18; 8]);
        let mixed = Matrix::from_rows(&rows);
        assert_eq!(
            index.topk(mixed.view(), 3),
            knn_reference(train.view(), mixed.view(), Metric::SquaredEuclidean, 3)
        );
    }
}
