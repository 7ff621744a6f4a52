//! The shared evaluation engine: a tile-blocked, chunk-parallel distance
//! scan over zero-copy [`DatasetView`]s, generalised from 1NN to top-k.
//!
//! Every estimator evaluation, bandit-arm pull, and experiment binary funnels
//! through the same inner loop — "for each query, find the nearest training
//! row(s)". This module implements that loop once, with three properties the
//! rest of the workspace relies on:
//!
//! 1. **Chunk parallelism.** Queries are split into contiguous chunks, one
//!    per worker of the persistent work-stealing pool (`snoopy_pool::scope`;
//!    submitting a chunk is a queue push, not a thread spawn).
//! 2. **Row blocking + tiling.** Each worker walks the training rows in
//!    blocks of [`EvalEngine::block_rows`] rows so a block stays
//!    cache-resident while every query of the chunk scans it, and inside a
//!    block each query's distances are computed a *tile*
//!    ([`EvalEngine::tile_rows`] rows) at a time by the register-blocked
//!    [`MetricKernel`] — whole tiles are then admitted into the per-query
//!    state.
//! 3. **Typed norm caches.** The [`MetricKernel`] owns the per-row norm
//!    caches of both scan sides (squared norms for the Euclidean family's
//!    norm trick, norms for cosine); callers bind a side once per
//!    dataset/batch instead of threading `Option<&[f32]>` scratch slices.
//!
//! The engine is *bit-identical* to the naive serial loop: every pairwise
//! distance is computed by the kernel layer's single set of expressions
//! (which [`Metric::distance`] also evaluates), and candidate admission is
//! ordered by the lexicographic key `(distance, global index)` — so ties
//! always resolve to the lowest training index regardless of thread count,
//! block size, tile size, or batch boundaries. The k=1 path
//! ([`EvalEngine::update_nearest`]) keeps its flat one-slot-per-query
//! layout; the general path maintains one bounded [`TopKState`] per query
//! and snapshots into a query-major [`NeighborTable`]. The integration test
//! `parallel_engine.rs` pins the parity against [`nearest_reference`] /
//! [`knn_reference`] down.

use crate::kernel::MetricKernel;
use crate::metric::Metric;
use snoopy_linalg::stats::OnlineLse;
use snoopy_linalg::DatasetView;

/// Running nearest-neighbour state of one query: distance and *global*
/// training-row index. `index == usize::MAX` means "nothing seen yet".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestHit {
    /// Dissimilarity to the nearest training row seen so far.
    pub distance: f32,
    /// Global index of that training row.
    pub index: usize,
}

impl NearestHit {
    /// The empty state: infinitely far, no index.
    pub const NONE: NearestHit = NearestHit { distance: f32::INFINITY, index: usize::MAX };

    /// Strict lexicographic `(distance, index)` order — the tie-break rule of
    /// the whole crate: equal distances resolve to the lowest global training
    /// index.
    #[inline]
    pub(crate) fn beats(distance: f32, index: usize, other: NearestHit) -> bool {
        distance < other.distance || (distance == other.distance && index < other.index)
    }
}

/// Bounded running top-k state of one query: at most `k` [`NearestHit`]s kept
/// sorted ascending by `(distance, index)`.
///
/// Admission uses the same lexicographic key, which makes the final contents
/// independent of the order in which candidates arrive — the foundation of
/// the engine's "parallel == serial, bit for bit" guarantee for k > 1. With
/// `k == 1` the state degenerates to a single slot updated by one comparison,
/// i.e. exactly the [`NearestHit`] layout of the 1NN path.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKState {
    k: usize,
    hits: Vec<NearestHit>,
}

impl TopKState {
    /// An empty state retaining the best `k` candidates (`k` clamped to ≥ 1).
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self { k, hits: Vec::with_capacity(k.min(64)) }
    }

    /// The capacity `k` the state was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current hits, ascending by `(distance, index)`; fewer than `k`
    /// entries until enough candidates have been offered.
    #[inline]
    pub fn hits(&self) -> &[NearestHit] {
        &self.hits
    }

    /// Clears the state for reuse at capacity `k` (clamped to ≥ 1), keeping
    /// the hit buffer's allocation — the scratch-reset of
    /// [`EvalEngine::topk_with`].
    #[inline]
    pub fn reset(&mut self, k: usize) {
        self.k = k.max(1);
        self.hits.clear();
    }

    /// Offers one candidate. Keeps the lexicographically smallest `k`
    /// `(distance, index)` pairs seen so far.
    #[inline]
    pub fn offer(&mut self, distance: f32, index: usize) {
        if let Some(&worst) = self.hits.last() {
            if self.hits.len() == self.k {
                if !NearestHit::beats(distance, index, worst) {
                    return;
                }
                // k == 1 fast path: a single slot overwritten in place.
                if self.k == 1 {
                    self.hits[0] = NearestHit { distance, index };
                    return;
                }
            }
        }
        let pos = self
            .hits
            .partition_point(|&h| NearestHit::beats(h.distance, h.index, NearestHit { distance, index }));
        self.hits.insert(pos, NearestHit { distance, index });
        if self.hits.len() > self.k {
            self.hits.pop();
        }
    }

    /// Removes every hit whose global training index is below `min_index` —
    /// the eviction primitive of the sliding-window successor state
    /// ([`crate::IncrementalTopK::evict_oldest`]). The surviving hits keep
    /// their ascending `(distance, index)` order.
    ///
    /// Returns `(removed_in_prefix, removed_total)` where `removed_in_prefix`
    /// counts removals among the first `prefix` positions — the caller uses it
    /// to shrink its certified-exact prefix length (see the admission-buffer
    /// invariant on [`crate::IncrementalTopK`]).
    pub fn evict_below(&mut self, min_index: usize, prefix: usize) -> (usize, usize) {
        let mut removed_prefix = 0usize;
        let mut kept = 0usize;
        for i in 0..self.hits.len() {
            let h = self.hits[i];
            if h.index < min_index {
                if i < prefix {
                    removed_prefix += 1;
                }
            } else {
                self.hits[kept] = h;
                kept += 1;
            }
        }
        let removed = self.hits.len() - kept;
        self.hits.truncate(kept);
        (removed_prefix, removed)
    }
}

/// Query-major top-k results: the `per_query` nearest training rows of every
/// query, each row's list ascending by `(distance, index)`.
///
/// Because per-query lists are sorted, the first `k' ≤ per_query` entries of a
/// row are exactly the top-`k'` answer — one table computed at `k_max` serves
/// every consumer that needs any smaller `k` (the FeeBee-style estimator
/// comparison computes one table per (transformation, split) and lets each
/// kNN-family estimator consume a prefix). Tables are built cold by
/// [`EvalEngine::topk`], incrementally from streamed batches via
/// [`EvalEngine::update_topk`] + [`NeighborTable::from_states`], or snapshot
/// from a grown [`crate::IncrementalTopK`] — bit-identical in every case.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NeighborTable {
    /// Neighbours stored per query: `min(k, candidate training rows)`, and
    /// 0 when there are no queries, so every constructor builds the same
    /// empty table.
    per_query: usize,
    num_queries: usize,
    /// `num_queries * per_query` hits, query-major.
    hits: Vec<NearestHit>,
}

impl NeighborTable {
    /// Snapshots one state per query into a table.
    ///
    /// # Panics
    /// Panics if states disagree on their hit count (every query must have
    /// seen the same candidate set).
    pub fn from_states(states: &[TopKState]) -> Self {
        let per_query = states.first().map_or(0, |s| s.hits.len());
        let mut hits = Vec::with_capacity(states.len() * per_query);
        for s in states {
            assert_eq!(s.hits.len(), per_query, "ragged top-k states cannot form a table");
            hits.extend_from_slice(&s.hits);
        }
        Self { per_query, num_queries: states.len(), hits }
    }

    /// Snapshots the first `per_query` hits of every state into a table —
    /// the truncating variant used by eviction-enabled
    /// [`crate::IncrementalTopK`] states, whose `k + slack` admission buffers
    /// may be ragged beyond the certified k-prefix.
    ///
    /// # Panics
    /// Panics if any state holds fewer than `per_query` hits.
    pub fn from_state_prefixes(states: &[TopKState], per_query: usize) -> Self {
        let per_query = if states.is_empty() { 0 } else { per_query };
        let mut hits = Vec::with_capacity(states.len() * per_query);
        for s in states {
            assert!(s.hits.len() >= per_query, "state holds fewer hits than the requested prefix");
            hits.extend_from_slice(&s.hits[..per_query]);
        }
        Self { per_query, num_queries: states.len(), hits }
    }

    /// [`NeighborTable::from_states`] into an existing table, reusing its
    /// hit buffer — the zero-alloc snapshot of [`EvalEngine::topk_with`].
    ///
    /// # Panics
    /// Panics if states disagree on their hit count.
    pub fn assign_from_states(&mut self, states: &[TopKState]) {
        let per_query = states.first().map_or(0, |s| s.hits.len());
        self.hits.clear();
        self.hits.reserve(states.len() * per_query);
        for s in states {
            assert_eq!(s.hits.len(), per_query, "ragged top-k states cannot form a table");
            self.hits.extend_from_slice(&s.hits);
        }
        self.per_query = per_query;
        self.num_queries = states.len();
    }

    /// Wraps the flat k=1 layout (one [`NearestHit`] per query) as a table.
    /// Unfilled slots (`NearestHit::NONE`, possible only when no training row
    /// was ever offered) yield an empty table.
    ///
    /// # Panics
    /// Panics if only some slots are unfilled.
    pub fn from_nearest(nearest: Vec<NearestHit>) -> Self {
        let num_queries = nearest.len();
        if nearest.first().is_none_or(|h| h.index == usize::MAX) {
            assert!(
                nearest.iter().all(|h| h.index == usize::MAX),
                "partially-filled nearest slots cannot form a table"
            );
            return Self { per_query: 0, num_queries, hits: Vec::new() };
        }
        assert!(
            nearest.iter().all(|h| h.index != usize::MAX),
            "partially-filled nearest slots cannot form a table"
        );
        Self { per_query: 1, num_queries, hits: nearest }
    }

    /// Number of queries.
    #[inline]
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    /// Neighbours stored per query (0 when no training rows were available
    /// or there are no queries).
    #[inline]
    pub fn k(&self) -> usize {
        self.per_query
    }

    /// The stored neighbours of query `q`, ascending by `(distance, index)`.
    #[inline]
    pub fn neighbors(&self, q: usize) -> &[NearestHit] {
        &self.hits[q * self.per_query..(q + 1) * self.per_query]
    }

    /// The top-`k` prefix of query `q`'s list (`k` clamped to the stored
    /// count) — the exact top-`k` answer for any `k ≤` [`NeighborTable::k`].
    #[inline]
    pub fn neighbors_k(&self, q: usize, k: usize) -> &[NearestHit] {
        &self.neighbors(q)[..k.min(self.per_query)]
    }

    /// The single nearest neighbour of query `q` (`None` on an empty table).
    #[inline]
    pub fn first(&self, q: usize) -> Option<NearestHit> {
        self.neighbors(q).first().copied()
    }

    /// Majority-vote label among the first `k` neighbours of query `q`; vote
    /// ties resolve to the smallest class id (deterministic).
    ///
    /// # Panics
    /// Panics if a consulted neighbour's label is `≥ num_classes`.
    pub fn vote(&self, q: usize, k: usize, train_labels: &[u32], num_classes: usize) -> u32 {
        let mut votes = vec![0usize; num_classes];
        self.vote_into(q, k, train_labels, &mut votes)
    }

    /// [`NeighborTable::vote`] with a caller-provided (reused) count buffer.
    fn vote_into(&self, q: usize, k: usize, train_labels: &[u32], votes: &mut [usize]) -> u32 {
        votes.iter_mut().for_each(|v| *v = 0);
        for hit in self.neighbors_k(q, k) {
            votes[train_labels[hit.index] as usize] += 1;
        }
        let mut best = 0usize;
        for (c, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = c;
            }
        }
        best as u32
    }

    /// kNN majority-vote classifier error against `query_labels`. Returns 0
    /// for zero queries; with an empty table (no training rows) every
    /// prediction counts as wrong.
    ///
    /// # Panics
    /// Panics if `query_labels` disagrees with the query count.
    pub fn knn_error(&self, k: usize, train_labels: &[u32], query_labels: &[u32], num_classes: usize) -> f64 {
        assert_eq!(query_labels.len(), self.num_queries, "query label count mismatch");
        if self.num_queries == 0 {
            return 0.0;
        }
        if self.per_query == 0 {
            return 1.0;
        }
        let mut votes = vec![0usize; num_classes];
        let wrong = query_labels
            .iter()
            .enumerate()
            .filter(|&(q, &y)| self.vote_into(q, k, train_labels, &mut votes) != y)
            .count();
        wrong as f64 / self.num_queries as f64
    }

    /// 1NN classifier error (the `k = 1` special case, no voting).
    pub fn one_nn_error(&self, train_labels: &[u32], query_labels: &[u32]) -> f64 {
        assert_eq!(query_labels.len(), self.num_queries, "query label count mismatch");
        if self.num_queries == 0 {
            return 0.0;
        }
        if self.per_query == 0 {
            return 1.0;
        }
        let wrong = query_labels
            .iter()
            .enumerate()
            .filter(|&(q, &y)| train_labels[self.neighbors(q)[0].index] != y)
            .count();
        wrong as f64 / self.num_queries as f64
    }
}

/// Number of worker threads the parallel engine uses by default: the worker
/// count of the current [`snoopy_pool`] pool (the installed one inside a
/// [`snoopy_pool::ThreadPool::install`] frame, else the global pool, whose
/// size is resolved once from `SNOOPY_POOL_WORKERS` /
/// `available_parallelism()`).
pub fn num_threads() -> usize {
    snoopy_pool::workers()
}

/// The tile-blocked, chunk-parallel evaluation engine.
#[derive(Debug, Clone, Copy)]
pub struct EvalEngine {
    threads: usize,
    block_rows: usize,
    tile_rows: usize,
}

/// Training rows per cache block: 128 rows × 256 dims × 4 bytes = 128 KiB,
/// sized to stay within a typical L2 slice for the workspace's embedding
/// dimensions (8–768).
const DEFAULT_BLOCK_ROWS: usize = 128;

/// Training rows per distance tile: one [`MetricKernel`] call computes this
/// many distances before they are admitted into the per-query state. 64
/// distances = 256 bytes of scratch, enough rows to amortise the admission
/// loop without spilling the microkernel's register blocks.
pub(crate) const DEFAULT_TILE_ROWS: usize = 64;

impl EvalEngine {
    /// A single-threaded engine (the bit-exact reference configuration).
    pub fn serial() -> Self {
        Self { threads: 1, block_rows: DEFAULT_BLOCK_ROWS, tile_rows: DEFAULT_TILE_ROWS }
    }

    /// An engine using all available cores (capped at 16).
    pub fn parallel() -> Self {
        Self { threads: num_threads(), block_rows: DEFAULT_BLOCK_ROWS, tile_rows: DEFAULT_TILE_ROWS }
    }

    /// An engine with an explicit worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads: threads.max(1), block_rows: DEFAULT_BLOCK_ROWS, tile_rows: DEFAULT_TILE_ROWS }
    }

    /// Overrides the training-row block size (clamped to ≥ 1).
    pub fn with_block_rows(mut self, block_rows: usize) -> Self {
        self.block_rows = block_rows.max(1);
        self
    }

    /// Overrides the distance-tile size (clamped to ≥ 1). Results are
    /// bit-identical for every tile size — the knob only trades scratch
    /// locality against admission-loop overhead.
    pub fn with_tile_rows(mut self, tile_rows: usize) -> Self {
        self.tile_rows = tile_rows.max(1);
        self
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The training-row block size.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// The distance-tile size.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Shape checks shared by the two fold entry points: the kernel's bound
    /// caches must correspond to exactly the views being scanned.
    fn check_binding(kernel: &MetricKernel, queries: DatasetView<'_>, train: DatasetView<'_>) {
        assert_eq!(queries.cols(), train.cols(), "query/train dimensionality mismatch");
        assert_eq!(kernel.queries_bound(), queries.rows(), "kernel query cache not bound to these queries");
        assert_eq!(kernel.train_bound(), train.rows(), "kernel train cache not bound to this train batch");
    }

    /// Folds the training rows of `train` (global indices starting at
    /// `offset`) into the running nearest state `best` of every query row.
    ///
    /// `kernel` must be bound to exactly these views
    /// ([`MetricKernel::bind_queries`] / [`MetricKernel::bind_train`]); the
    /// typed caches replace the old per-metric `Option<&[f32]>` norm
    /// plumbing, so no metric can observe a missing norm.
    ///
    /// # Panics
    /// Panics on dimension mismatches, `best.len() != queries.rows()`, or a
    /// kernel whose caches are not bound to these views.
    pub fn update_nearest(
        &self,
        queries: DatasetView<'_>,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        offset: usize,
        best: &mut [NearestHit],
    ) {
        Self::check_binding(kernel, queries, train);
        assert_eq!(best.len(), queries.rows(), "one nearest slot per query required");
        if queries.rows() == 0 || train.rows() == 0 {
            return;
        }
        let n = queries.rows();
        let threads = self.threads.min(n);
        if threads <= 1 {
            self.scan_chunk(queries, 0, kernel, train, offset, best);
            return;
        }
        let chunk = n.div_ceil(threads);
        snoopy_pool::scope(|scope| {
            for (t, slot) in best.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                scope.spawn(move || {
                    self.scan_chunk(queries, start, kernel, train, offset, slot);
                });
            }
        });
    }

    /// Scans all training blocks for the queries `[start, start + best.len())`,
    /// one distance tile at a time — queries in pairs through the 2 × 4
    /// register block, with a single-query pass for an odd trailing query.
    fn scan_chunk(
        &self,
        queries: DatasetView<'_>,
        start: usize,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        offset: usize,
        best: &mut [NearestHit],
    ) {
        let tile_len = self.tile_rows.min(train.rows().max(1));
        let mut tile_a = vec![0.0f32; tile_len];
        let mut tile_b = vec![0.0f32; tile_len];
        let n_train = train.rows();
        let mut b0 = 0;
        while b0 < n_train {
            let bend = (b0 + self.block_rows).min(n_train);
            let mut qi = 0;
            while qi < best.len() {
                let q = queries.row(start + qi);
                let qv = kernel.query_cached(start + qi);
                let paired = qi + 1 < best.len();
                let mut t0 = b0;
                while t0 < bend {
                    let len = self.tile_rows.min(bend - t0);
                    if paired {
                        kernel.tile2_with(
                            q,
                            qv,
                            queries.row(start + qi + 1),
                            kernel.query_cached(start + qi + 1),
                            train,
                            t0,
                            &mut tile_a[..len],
                            &mut tile_b[..len],
                        );
                    } else {
                        kernel.tile_with(q, qv, train, t0, &mut tile_a[..len]);
                    }
                    for (slot_off, tile) in [(0usize, &tile_a), (1, &tile_b)] {
                        if slot_off == 1 && !paired {
                            break;
                        }
                        let slot = &mut best[qi + slot_off];
                        for (j, &d) in tile[..len].iter().enumerate() {
                            let index = offset + t0 + j;
                            if NearestHit::beats(d, index, *slot) {
                                *slot = NearestHit { distance: d, index };
                            }
                        }
                    }
                    t0 += len;
                }
                qi += if paired { 2 } else { 1 };
            }
            b0 = bend;
        }
    }

    /// Nearest training row for every query, from a cold start: binds a
    /// fresh [`MetricKernel`] internally (one norm pass per side, nothing
    /// per query).
    pub fn nearest(
        &self,
        train: DatasetView<'_>,
        queries: DatasetView<'_>,
        metric: Metric,
    ) -> Vec<NearestHit> {
        let mut best = vec![NearestHit::NONE; queries.rows()];
        let kernel = MetricKernel::bound(metric, queries, train);
        self.update_nearest(queries, &kernel, train, 0, &mut best);
        best
    }

    /// Folds the training rows of `train` (global indices starting at
    /// `offset`) into the running top-k state of every query row — the k-ary
    /// generalisation of [`EvalEngine::update_nearest`], streamable batch by
    /// batch exactly the same way.
    ///
    /// `kernel` must be bound to exactly these views. `exclude_self =
    /// Some(base)` declares that query row `i` *is* the training row with
    /// global index `base + i` and skips that one pair — the leave-one-out
    /// configuration.
    ///
    /// # Panics
    /// Panics on dimension mismatches, `states.len() != queries.rows()`, or
    /// a kernel whose caches are not bound to these views.
    pub fn update_topk(
        &self,
        queries: DatasetView<'_>,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
    ) {
        Self::check_binding(kernel, queries, train);
        assert_eq!(states.len(), queries.rows(), "one top-k state per query required");
        if queries.rows() == 0 || train.rows() == 0 {
            return;
        }
        let n = queries.rows();
        let threads = self.threads.min(n);
        if threads <= 1 {
            self.scan_chunk_topk(queries, 0, kernel, train, offset, states, exclude_self);
            return;
        }
        let chunk = n.div_ceil(threads);
        snoopy_pool::scope(|scope| {
            for (t, slot) in states.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                scope.spawn(move || {
                    self.scan_chunk_topk(queries, start, kernel, train, offset, slot, exclude_self);
                });
            }
        });
    }

    /// Scans all training blocks into the top-k states of queries
    /// `[start, start + states.len())`, one distance tile at a time —
    /// queries in pairs through the 2 × 4 register block, with a
    /// single-query pass for an odd trailing query.
    #[allow(clippy::too_many_arguments)] // the scan's full per-chunk context
    fn scan_chunk_topk(
        &self,
        queries: DatasetView<'_>,
        start: usize,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
    ) {
        let tile_len = self.tile_rows.min(train.rows().max(1));
        let mut tile_a = vec![0.0f32; tile_len];
        let mut tile_b = vec![0.0f32; tile_len];
        let n_train = train.rows();
        let mut b0 = 0;
        while b0 < n_train {
            let bend = (b0 + self.block_rows).min(n_train);
            let mut qi = 0;
            while qi < states.len() {
                let q = queries.row(start + qi);
                let qv = kernel.query_cached(start + qi);
                let paired = qi + 1 < states.len();
                let mut t0 = b0;
                while t0 < bend {
                    let len = self.tile_rows.min(bend - t0);
                    if paired {
                        kernel.tile2_with(
                            q,
                            qv,
                            queries.row(start + qi + 1),
                            kernel.query_cached(start + qi + 1),
                            train,
                            t0,
                            &mut tile_a[..len],
                            &mut tile_b[..len],
                        );
                    } else {
                        kernel.tile_with(q, qv, train, t0, &mut tile_a[..len]);
                    }
                    for (state_off, tile) in [(0usize, &tile_a), (1, &tile_b)] {
                        if state_off == 1 && !paired {
                            break;
                        }
                        let state = &mut states[qi + state_off];
                        let skip = exclude_self.map(|b| b + start + qi + state_off).unwrap_or(usize::MAX);
                        for (j, &d) in tile[..len].iter().enumerate() {
                            let global = offset + t0 + j;
                            if global == skip {
                                continue;
                            }
                            state.offer(d, global);
                        }
                    }
                    t0 += len;
                }
                qi += if paired { 2 } else { 1 };
            }
            b0 = bend;
        }
    }

    /// Top-k neighbour table for every query, from a cold start. `k = 1`
    /// specialises to the flat [`EvalEngine::nearest`] layout (no per-query
    /// state allocation); the norm caches are bound internally either way.
    pub fn topk(
        &self,
        train: DatasetView<'_>,
        queries: DatasetView<'_>,
        metric: Metric,
        k: usize,
    ) -> NeighborTable {
        let k = k.max(1);
        if k == 1 {
            return NeighborTable::from_nearest(self.nearest(train, queries, metric));
        }
        let kernel = MetricKernel::bound(metric, queries, train);
        let mut states = vec![TopKState::new(k); queries.rows()];
        self.update_topk(queries, &kernel, train, 0, &mut states, None);
        NeighborTable::from_states(&states)
    }

    /// Leave-one-out top-k table of `data` against itself: row `i`'s
    /// neighbour list excludes row `i`. Each row stores
    /// `min(k, rows − 1)` hits.
    pub fn topk_loo(&self, data: DatasetView<'_>, metric: Metric, k: usize) -> NeighborTable {
        let kernel = MetricKernel::bound(metric, data, data);
        let mut states = vec![TopKState::new(k.max(1)); data.rows()];
        self.update_topk(data, &kernel, data, 0, &mut states, Some(0));
        NeighborTable::from_states(&states)
    }

    /// [`EvalEngine::topk`] with caller-owned scratch: the per-query states,
    /// the kernel's norm caches, and the output table all live in `scratch`
    /// and are reused call after call, so once the scratch has warmed up to
    /// the largest query count seen, a steady-state serving loop allocates
    /// nothing per call. Results are bit-identical to [`EvalEngine::topk`].
    pub fn topk_with<'s>(
        &self,
        scratch: &'s mut TopKScratch,
        train: DatasetView<'_>,
        queries: DatasetView<'_>,
        metric: Metric,
        k: usize,
    ) -> &'s NeighborTable {
        let (kernel, states, table) = scratch.prepare(metric, queries.rows(), k);
        kernel.bind_queries(queries);
        kernel.bind_train(train);
        self.update_topk(queries, kernel, train, 0, states, None);
        table.assign_from_states(states);
        table
    }

    /// [`EvalEngine::topk_loo`] with caller-owned scratch — see
    /// [`EvalEngine::topk_with`] for the reuse contract.
    pub fn topk_loo_with<'s>(
        &self,
        scratch: &'s mut TopKScratch,
        data: DatasetView<'_>,
        metric: Metric,
        k: usize,
    ) -> &'s NeighborTable {
        let (kernel, states, table) = scratch.prepare(metric, data.rows(), k);
        kernel.bind_queries(data);
        kernel.bind_train(data);
        self.update_topk(data, kernel, data, 0, states, Some(0));
        table.assign_from_states(states);
        table
    }

    /// Blocked, chunk-parallel accumulation of per-class Gaussian kernel
    /// sums — the KDE hot loop. For every query `q` and class `c` this
    /// returns (query-major, `num_classes` entries per query)
    ///
    /// ```text
    /// out[q·C + c] = log Σ_{j : labels[j] = c} exp(−‖q − x_j‖² · inv_two_h2)
    /// ```
    ///
    /// accumulated with an online log-sum-exp ([`OnlineLse`]) so the blocked
    /// kernel never materialises the per-point log-kernels. Classes with no
    /// training rows yield `-∞`. Training rows are visited in ascending index
    /// order per query, so results do not depend on thread count or block
    /// size.
    ///
    /// # Panics
    /// Panics on dimension or label-count mismatches, or a label
    /// `≥ num_classes`.
    pub fn class_kernel_log_sums(
        &self,
        queries: DatasetView<'_>,
        train: DatasetView<'_>,
        train_labels: &[u32],
        num_classes: usize,
        inv_two_h2: f64,
    ) -> Vec<f64> {
        assert_eq!(queries.cols(), train.cols(), "query/train dimensionality mismatch");
        assert_eq!(train.rows(), train_labels.len(), "train feature/label mismatch");
        let n = queries.rows();
        let c = num_classes.max(1);
        let mut acc = vec![OnlineLse::EMPTY; n * c];
        if n > 0 && train.rows() > 0 {
            let kernel = MetricKernel::bound(Metric::SquaredEuclidean, queries, train);
            let threads = self.threads.min(n);
            if threads <= 1 {
                self.kernel_chunk(queries, 0, &kernel, train, train_labels, c, inv_two_h2, &mut acc);
            } else {
                let chunk = n.div_ceil(threads);
                let kernel = &kernel;
                snoopy_pool::scope(|scope| {
                    for (t, slot) in acc.chunks_mut(chunk * c).enumerate() {
                        let start = t * chunk;
                        scope.spawn(move || {
                            self.kernel_chunk(
                                queries,
                                start,
                                kernel,
                                train,
                                train_labels,
                                c,
                                inv_two_h2,
                                slot,
                            );
                        });
                    }
                });
            }
        }
        acc.iter().map(OnlineLse::value).collect()
    }

    /// Accumulates all training blocks into the per-class kernel sums of
    /// queries `[start, start + acc.len() / classes)`, one distance tile at
    /// a time.
    #[allow(clippy::too_many_arguments)] // the kernel's full context, passed by value/slice
    fn kernel_chunk(
        &self,
        queries: DatasetView<'_>,
        start: usize,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        train_labels: &[u32],
        classes: usize,
        inv_two_h2: f64,
        acc: &mut [OnlineLse],
    ) {
        let mut tile = vec![0.0f32; self.tile_rows.min(train.rows().max(1))];
        let n_train = train.rows();
        let mut b0 = 0;
        while b0 < n_train {
            let bend = (b0 + self.block_rows).min(n_train);
            for (qi, states) in acc.chunks_mut(classes).enumerate() {
                let q = queries.row(start + qi);
                let qv = kernel.query_cached(start + qi);
                let mut t0 = b0;
                while t0 < bend {
                    let len = self.tile_rows.min(bend - t0);
                    let out = &mut tile[..len];
                    kernel.tile_with(q, qv, train, t0, out);
                    for (j, &d) in out.iter().enumerate() {
                        states[train_labels[t0 + j] as usize].add(-(d as f64) * inv_two_h2);
                    }
                    t0 += len;
                }
            }
            b0 = bend;
        }
    }
}

/// Caller-owned scratch for the zero-alloc top-k entry points
/// ([`EvalEngine::topk_with`] / [`EvalEngine::topk_loo_with`]): the
/// per-query [`TopKState`]s, the [`MetricKernel`] with its norm caches, and
/// the output [`NeighborTable`] are all owned here and recycled call after
/// call — the `Reuse`-variant API idiom. A fresh scratch behaves exactly
/// like the allocating entry points; reuse only skips the allocations.
#[derive(Default)]
pub struct TopKScratch {
    kernel: Option<MetricKernel>,
    states: Vec<TopKState>,
    table: NeighborTable,
}

impl TopKScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table produced by the most recent `*_with` call (empty before
    /// any call).
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// Resets the states to `n` queries at capacity `k`, keeps (or swaps,
    /// on a metric change) the kernel, and hands all three buffers out.
    fn prepare(
        &mut self,
        metric: Metric,
        n: usize,
        k: usize,
    ) -> (&mut MetricKernel, &mut [TopKState], &mut NeighborTable) {
        if !matches!(&self.kernel, Some(kr) if kr.metric() == metric) {
            self.kernel = Some(MetricKernel::new(metric));
        }
        let kernel = self.kernel.as_mut().expect("kernel ensured above");
        let k = k.max(1);
        self.states.truncate(n);
        for s in self.states.iter_mut() {
            s.reset(k);
        }
        self.states.resize_with(n, || TopKState::new(k));
        (kernel, &mut self.states, &mut self.table)
    }
}

/// Reference implementation: the plain serial double loop, written with
/// [`Metric::distance`] (the kernel layer's fixed-order scalar expression)
/// and no blocking or tiling. The engine must match it bit for bit; tests
/// and the bench harness compare against it.
pub fn nearest_reference(
    train: DatasetView<'_>,
    queries: DatasetView<'_>,
    metric: Metric,
) -> Vec<NearestHit> {
    let mut best = vec![NearestHit::NONE; queries.rows()];
    for (slot, q) in best.iter_mut().zip(queries.rows_iter()) {
        for (j, row) in train.rows_iter().enumerate() {
            let d = metric.distance(q, row);
            if d < slot.distance {
                *slot = NearestHit { distance: d, index: j };
            }
        }
    }
    best
}

/// Reference top-k implementation: compute *every* pairwise distance with
/// [`Metric::distance`], sort by the lexicographic `(distance, index)` key,
/// truncate to `k`. Quadratic in memory per query and purely serial — exists
/// only as the ground truth the engine must match bit for bit.
pub fn knn_reference(
    train: DatasetView<'_>,
    queries: DatasetView<'_>,
    metric: Metric,
    k: usize,
) -> NeighborTable {
    reference_table(train, queries, metric, k.max(1), false)
}

/// Leave-one-out variant of [`knn_reference`]: query `i` is row `i` of
/// `data` and is excluded from its own neighbour list.
pub fn knn_reference_loo(data: DatasetView<'_>, metric: Metric, k: usize) -> NeighborTable {
    reference_table(data, data, metric, k.max(1), true)
}

fn reference_table(
    train: DatasetView<'_>,
    queries: DatasetView<'_>,
    metric: Metric,
    k: usize,
    exclude_diag: bool,
) -> NeighborTable {
    let candidates = if exclude_diag { train.rows().saturating_sub(1) } else { train.rows() };
    let per_query = if queries.rows() == 0 { 0 } else { k.min(candidates) };
    let mut hits = Vec::with_capacity(queries.rows() * per_query);
    for (qi, q) in queries.rows_iter().enumerate() {
        let mut all: Vec<NearestHit> = train
            .rows_iter()
            .enumerate()
            .filter(|&(j, _)| !(exclude_diag && j == qi))
            .map(|(j, row)| NearestHit { distance: metric.distance(q, row), index: j })
            .collect();
        all.sort_by(|a, b| {
            a.distance.partial_cmp(&b.distance).expect("NaN distance").then(a.index.cmp(&b.index))
        });
        all.truncate(per_query);
        hits.extend(all);
    }
    NeighborTable { per_query, num_queries: queries.rows(), hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_linalg::Matrix;

    fn wavy(n: usize, d: usize, phase: f32) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * d + c) as f32 * 0.37 + phase).sin() * 3.0)
    }

    #[test]
    fn engine_matches_reference_for_all_metrics() {
        let train = wavy(137, 9, 0.0);
        let queries = wavy(41, 9, 1.3);
        for metric in Metric::all() {
            let reference = nearest_reference(train.view(), queries.view(), metric);
            for engine in [
                EvalEngine::serial(),
                EvalEngine::parallel(),
                EvalEngine::with_threads(3).with_block_rows(16),
            ] {
                let got = engine.nearest(train.view(), queries.view(), metric);
                assert_eq!(got, reference, "metric {} engine {engine:?}", metric.name());
            }
        }
    }

    #[test]
    fn streaming_updates_accumulate_to_the_full_answer() {
        let train = wavy(100, 5, 0.0);
        let queries = wavy(23, 5, 2.1);
        let engine = EvalEngine::with_threads(2).with_block_rows(8);
        let metric = Metric::SquaredEuclidean;
        let mut kernel = crate::kernel::MetricKernel::new(metric);
        kernel.bind_queries(queries.view());
        let mut best = vec![NearestHit::NONE; queries.rows()];
        let mut consumed = 0;
        for batch in train.view().batches(33) {
            kernel.bind_train(batch);
            engine.update_nearest(queries.view(), &kernel, batch, consumed, &mut best);
            consumed += batch.rows();
        }
        assert_eq!(best, nearest_reference(train.view(), queries.view(), metric));
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let train = wavy(10, 4, 0.0);
        let empty = Matrix::zeros(0, 4);
        let mut best: Vec<NearestHit> = vec![];
        let kernel = crate::kernel::MetricKernel::bound(Metric::SquaredEuclidean, empty.view(), train.view());
        EvalEngine::parallel().update_nearest(empty.view(), &kernel, train.view(), 0, &mut best);
        let hits = EvalEngine::parallel().nearest(empty.view(), wavy(3, 4, 0.5).view(), Metric::Euclidean);
        assert!(hits.iter().all(|h| *h == NearestHit::NONE));
    }

    #[test]
    fn topk_matches_reference_for_all_metrics_and_ks() {
        let train = wavy(119, 7, 0.0);
        let queries = wavy(29, 7, 1.7);
        for metric in Metric::all() {
            for k in [1usize, 3, 10, 119, 400] {
                let reference = knn_reference(train.view(), queries.view(), metric, k);
                for engine in [
                    EvalEngine::serial(),
                    EvalEngine::parallel(),
                    EvalEngine::with_threads(3).with_block_rows(16),
                ] {
                    let got = engine.topk(train.view(), queries.view(), metric, k);
                    assert_eq!(got, reference, "metric {} k {k} engine {engine:?}", metric.name());
                }
            }
        }
    }

    #[test]
    fn streamed_topk_accumulates_to_the_cold_start_answer() {
        let train = wavy(90, 5, 0.0);
        let queries = wavy(21, 5, 2.4);
        let engine = EvalEngine::with_threads(2).with_block_rows(8);
        for metric in [Metric::SquaredEuclidean, Metric::Cosine] {
            let mut kernel = crate::kernel::MetricKernel::new(metric);
            kernel.bind_queries(queries.view());
            let mut states = vec![TopKState::new(4); queries.rows()];
            let mut consumed = 0;
            for batch in train.view().batches(26) {
                kernel.bind_train(batch);
                engine.update_topk(queries.view(), &kernel, batch, consumed, &mut states, None);
                consumed += batch.rows();
            }
            let table = NeighborTable::from_states(&states);
            assert_eq!(table, knn_reference(train.view(), queries.view(), metric, 4), "{}", metric.name());
        }
    }

    #[test]
    fn loo_table_excludes_self_and_matches_reference() {
        let data = wavy(57, 6, 0.3);
        for metric in Metric::all() {
            for k in [1usize, 5, 57] {
                let reference = knn_reference_loo(data.view(), metric, k);
                let got = EvalEngine::with_threads(4).with_block_rows(13).topk_loo(data.view(), metric, k);
                assert_eq!(got, reference, "metric {} k {k}", metric.name());
                for q in 0..got.num_queries() {
                    assert!(got.neighbors(q).iter().all(|h| h.index != q), "row {q} must exclude itself");
                }
                assert_eq!(got.k(), k.min(56));
            }
        }
    }

    #[test]
    fn table_prefixes_are_smaller_k_answers_and_votes_are_deterministic() {
        let train = wavy(64, 4, 0.0);
        let queries = wavy(11, 4, 0.9);
        let big = EvalEngine::parallel().topk(train.view(), queries.view(), Metric::SquaredEuclidean, 9);
        let small = EvalEngine::parallel().topk(train.view(), queries.view(), Metric::SquaredEuclidean, 3);
        for q in 0..queries.rows() {
            assert_eq!(big.neighbors_k(q, 3), small.neighbors(q));
            assert_eq!(big.first(q), small.first(q));
        }
        // All-identical labels: the vote is that label for every k.
        let labels = vec![2u32; 64];
        for q in 0..queries.rows() {
            assert_eq!(big.vote(q, 5, &labels, 3), 2);
        }
    }

    #[test]
    fn topk_ties_resolve_to_lowest_indices_for_every_shape() {
        // Every training row identical: the top-k set must be {0, 1, .., k-1}
        // in order, for any thread/block shape and for streamed ingestion.
        let train = Matrix::from_fn(40, 3, |_, _| 2.5);
        let queries = wavy(7, 3, 0.4);
        for metric in Metric::all() {
            for engine in [EvalEngine::serial(), EvalEngine::with_threads(5).with_block_rows(4)] {
                let table = engine.topk(train.view(), queries.view(), metric, 6);
                for q in 0..table.num_queries() {
                    let idx: Vec<usize> = table.neighbors(q).iter().map(|h| h.index).collect();
                    assert_eq!(idx, vec![0, 1, 2, 3, 4, 5], "metric {}", metric.name());
                }
            }
        }
    }

    #[test]
    fn class_kernel_log_sums_match_naive_lse() {
        use snoopy_linalg::stats;
        let train = wavy(83, 5, 0.0);
        let queries = wavy(17, 5, 1.1);
        let labels: Vec<u32> = (0..83).map(|i| (i % 3) as u32).collect();
        let inv_two_h2 = 0.37;
        for engine in [EvalEngine::serial(), EvalEngine::with_threads(4).with_block_rows(9)] {
            let got = engine.class_kernel_log_sums(queries.view(), train.view(), &labels, 4, inv_two_h2);
            assert_eq!(got.len(), 17 * 4);
            for (qi, q) in queries.view().rows_iter().enumerate() {
                for c in 0..4u32 {
                    let terms: Vec<f64> = train
                        .view()
                        .rows_iter()
                        .enumerate()
                        .filter(|(j, _)| labels.get(*j) == Some(&c))
                        .map(|(_, row)| -(Metric::SquaredEuclidean.distance(q, row) as f64) * inv_two_h2)
                        .collect();
                    let expected = stats::log_sum_exp(&terms);
                    let v = got[qi * 4 + c as usize];
                    if terms.is_empty() {
                        assert_eq!(v, f64::NEG_INFINITY, "empty class must be -inf");
                    } else {
                        assert!((v - expected).abs() < 1e-9, "q {qi} class {c}: {v} vs {expected}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_table_shapes() {
        let queries = wavy(5, 4, 0.0);
        let empty_train = Matrix::zeros(0, 4);
        let table = EvalEngine::parallel().topk(empty_train.view(), queries.view(), Metric::Euclidean, 3);
        assert_eq!(table.num_queries(), 5);
        assert_eq!(table.k(), 0);
        assert_eq!(table.first(0), None);
        assert_eq!(table.one_nn_error(&[], &[0, 1, 0, 1, 0]), 1.0);
        let no_queries =
            EvalEngine::parallel().topk(queries.view(), empty_train.view(), Metric::Euclidean, 3);
        assert_eq!(no_queries.num_queries(), 0);
        assert_eq!(no_queries.knn_error(3, &[0; 5], &[], 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let train = wavy(4, 3, 0.0);
        let queries = wavy(4, 5, 0.0);
        let mut best = vec![NearestHit::NONE; 4];
        let kernel =
            crate::kernel::MetricKernel::bound(Metric::SquaredEuclidean, queries.view(), train.view());
        EvalEngine::serial().update_nearest(queries.view(), &kernel, train.view(), 0, &mut best);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn stale_kernel_binding_panics() {
        let train = wavy(6, 3, 0.0);
        let queries = wavy(4, 3, 0.0);
        let mut best = vec![NearestHit::NONE; 4];
        // Kernel bound to a *prefix* of the training batch: a loud error,
        // not a silent wrong answer.
        let kernel =
            crate::kernel::MetricKernel::bound(Metric::Cosine, queries.view(), train.view().slice_rows(0, 3));
        EvalEngine::serial().update_nearest(queries.view(), &kernel, train.view(), 0, &mut best);
    }
}
