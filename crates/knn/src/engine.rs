//! The shared evaluation engine: a tile-blocked, chunk-parallel distance
//! scan over zero-copy [`DatasetView`]s, generalised from 1NN to top-k.
//!
//! Every estimator evaluation, bandit-arm pull, and experiment binary funnels
//! through the same inner loop — "for each query, visit every training
//! row". This module implements that loop once (the private `walk`), and its
//! two entry points differ only in what each query does with its distances:
//! [`EvalEngine::update_topk`] offers them to the query's [`TopKState`], and
//! [`EvalEngine::class_kernel_log_sums`] folds them into the query's
//! per-class online log-sum-exps (KDE). The loop has three properties the
//! rest of the workspace relies on:
//!
//! 1. **Chunk parallelism.** Queries are split into contiguous chunks, one
//!    per worker of the pool the call runs on ([`snoopy_pool::workers`];
//!    submitting a chunk is a queue push, not a thread spawn). The engine
//!    holds no thread count of its own: to run a scan at another width,
//!    install a pool of that size around it.
//! 2. **Row blocking + tiling.** Each worker walks the training rows in
//!    blocks of [`EvalEngine::block_rows`] rows so a block stays
//!    cache-resident while every query of the chunk scans it, and inside a
//!    block the queries go in pairs through the register-blocked
//!    [`MetricKernel`], one *tile* ([`EvalEngine::tile_rows`] rows) of
//!    distances at a time — whole tiles are then handed to the per-query
//!    state.
//! 3. **Typed norm caches.** The [`MetricKernel`] owns the per-row norm
//!    caches of both scan sides (squared norms for the Euclidean family's
//!    norm trick, norms for cosine); callers bind a side once per
//!    dataset/batch instead of threading `Option<&[f32]>` scratch slices.
//!
//! The engine is *bit-identical* to the naive serial loop: every pairwise
//! distance is computed by the kernel layer's single set of expressions
//! (which [`Metric::distance`] also evaluates), each query sees its training
//! rows in ascending order, and candidate admission is ordered by the
//! lexicographic key `(distance, global index)` — so ties always resolve to
//! the lowest training index regardless of pool worker count, block size,
//! tile size, or batch boundaries. Every table, `k = 1` included, keeps one
//! bounded [`TopKState`] per query and snapshots into a query-major
//! [`NeighborTable`]. The integration test `parallel_engine.rs` pins the
//! parity against [`nearest_reference`] / [`knn_reference`] down.

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
    pub fn beats(distance: f32, index: usize, other: NearestHit) -> bool {
        distance < other.distance || (distance == other.distance && index < other.index)
    }
}

/// Bounded running top-k state of one query: at most `k` [`NearestHit`]s kept
/// sorted ascending by `(distance, index)`.
///
/// Admission uses the same lexicographic key, which makes the final contents
/// independent of the order in which candidates arrive — the foundation of
/// the engine's "parallel == serial, bit for bit" guarantee. With `k == 1`
/// the state degenerates to a single slot overwritten in place.
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
    /// the hit buffer's allocation.
    #[inline]
    pub fn reset(&mut self, k: usize) {
        self.k = k.max(1);
        self.hits.clear();
    }

    /// The worst kept hit once the state holds `k` hits: a candidate is
    /// admitted only if it beats this bar. `None` while the state has room,
    /// when every candidate is admitted.
    #[inline]
    fn admission_bar(&self) -> Option<NearestHit> {
        self.hits.last().copied().filter(|_| self.hits.len() == self.k)
    }

    /// Offers one candidate. Keeps the lexicographically smallest `k`
    /// `(distance, index)` pairs seen so far.
    #[inline]
    pub fn offer(&mut self, distance: f32, index: usize) {
        if let Some(worst) = self.admission_bar() {
            if !NearestHit::beats(distance, index, worst) {
                return;
            }
            // k == 1 fast path: a single slot overwritten in place.
            if self.k == 1 {
                self.hits[0] = NearestHit { distance, index };
                return;
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

    /// Majority-vote label among the first `k` neighbours of query `q`, with
    /// a caller-provided (reused) count buffer; vote ties resolve to the
    /// smallest class id (deterministic).
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

/// The tile-blocked, chunk-parallel evaluation engine. It stores only scan
/// geometry; each call splits its queries over the workers of the pool it
/// runs on.
#[derive(Debug, Clone, Copy)]
pub struct EvalEngine {
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

impl Default for EvalEngine {
    /// The default block and tile sizes.
    fn default() -> Self {
        Self { block_rows: DEFAULT_BLOCK_ROWS, tile_rows: DEFAULT_TILE_ROWS }
    }
}

impl EvalEngine {
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

    /// The training-row block size.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// The distance-tile size.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// The engine's one scan loop. `sinks` holds one equal run of sinks per
    /// query row; `sink(run, t0, tile)` receives one query's run and the
    /// distances from that query to the bound training rows
    /// `t0..t0 + tile.len()`. Queries are split into one contiguous chunk
    /// per worker of the current pool; each chunk walks the training rows
    /// block by block and, inside a block, takes its queries in pairs
    /// through the 2 × 4 register block (an odd trailing query alone), one
    /// tile at a time. Each query therefore sees its training rows in
    /// ascending order, whatever the worker count, block or tile size.
    fn walk<S: Send>(
        &self,
        queries: DatasetView<'_>,
        kernel: &MetricKernel,
        train: DatasetView<'_>,
        sinks: &mut [S],
        sink: impl Fn(&mut [S], usize, &[f32]) + Sync,
    ) {
        let n = queries.rows();
        if n == 0 || train.rows() == 0 {
            return;
        }
        let stride = sinks.len() / n;
        let scan = |start: usize, sinks: &mut [S]| {
            let tile_len = self.tile_rows.min(train.rows());
            let (mut tile_a, mut tile_b) = (vec![0.0f32; tile_len], vec![0.0f32; tile_len]);
            for b0 in (0..train.rows()).step_by(self.block_rows) {
                let bend = (b0 + self.block_rows).min(train.rows());
                for (pair, runs) in sinks.chunks_mut(2 * stride).enumerate() {
                    let qa = start + 2 * pair;
                    let (run_a, run_b) = runs.split_at_mut(stride);
                    let paired = !run_b.is_empty();
                    for t0 in (b0..bend).step_by(self.tile_rows) {
                        let len = self.tile_rows.min(bend - t0);
                        let (a, b) = (&mut tile_a[..len], &mut tile_b[..len]);
                        if paired {
                            let qb = qa + 1;
                            let (qva, qvb) = (kernel.query_cached(qa), kernel.query_cached(qb));
                            kernel.tile2_with(queries.row(qa), qva, queries.row(qb), qvb, train, t0, a, b);
                            sink(run_a, t0, a);
                            sink(run_b, t0, b);
                        } else {
                            kernel.tile_with(queries.row(qa), kernel.query_cached(qa), train, t0, a);
                            sink(run_a, t0, a);
                        }
                    }
                }
            }
        };
        let chunks = snoopy_pool::workers().min(n);
        if chunks <= 1 {
            return scan(0, sinks);
        }
        let chunk = n.div_ceil(chunks);
        let scan = &scan;
        snoopy_pool::scope(|scope| {
            for (t, part) in sinks.chunks_mut(chunk * stride).enumerate() {
                scope.spawn(move || scan(t * chunk, part));
            }
        });
    }

    /// Folds the training rows of `train` (global indices starting at
    /// `offset`) into the running top-k state of every query row, streamable
    /// batch by batch.
    ///
    /// `kernel` must be bound to exactly these views
    /// ([`MetricKernel::bind_queries`] / [`MetricKernel::bind_train`]).
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
    ) {
        assert_eq!(queries.cols(), train.cols(), "query/train dimensionality mismatch");
        assert_eq!(kernel.queries_bound(), queries.rows(), "kernel query cache not bound to these queries");
        assert_eq!(kernel.train_bound(), train.rows(), "kernel train cache not bound to this train batch");
        assert_eq!(states.len(), queries.rows(), "one top-k state per query required");
        self.walk(queries, kernel, train, states, |state, t0, tile| {
            let state = &mut state[0];
            // Only a candidate that clears the bar can change the state, so
            // the bar lives in a local and the rest never reach `offer`.
            let mut bar = state.admission_bar();
            for (j, &d) in tile.iter().enumerate() {
                let global = offset + t0 + j;
                if bar.is_none_or(|worst| NearestHit::beats(d, global, worst)) {
                    state.offer(d, global);
                    bar = state.admission_bar();
                }
            }
        });
    }

    /// Top-k neighbour table for every query, from a cold start; the norm
    /// caches are bound internally (one norm pass per side, nothing per
    /// query).
    pub fn topk(
        &self,
        train: DatasetView<'_>,
        queries: DatasetView<'_>,
        metric: Metric,
        k: usize,
    ) -> NeighborTable {
        let kernel = MetricKernel::bound(metric, queries, train);
        let mut states = vec![TopKState::new(k.max(1)); queries.rows()];
        self.update_topk(queries, &kernel, train, 0, &mut states);
        NeighborTable::from_states(&states)
    }

    /// Blocked, chunk-parallel accumulation of per-class Gaussian kernel
    /// sums — the KDE hot loop. For every query `q` and class `c` this
    /// returns (query-major, `num_classes` entries per query)
    ///
    /// ```text
    /// out[q·C + c] = log Σ_{j : labels[j] = c} exp(−‖q − x_j‖² · inv_two_h2)
    /// ```
    ///
    /// accumulated with an online log-sum-exp ([`OnlineLse`]) per (query,
    /// class) in the same scan loop as [`EvalEngine::update_topk`], so the
    /// per-point log-kernels are never materialised. Classes with no
    /// training rows yield `-∞`. Training rows are visited in ascending
    /// index order per query, so results do not depend on the pool worker
    /// count, block or tile size.
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
        let mut acc = vec![OnlineLse::EMPTY; queries.rows() * num_classes.max(1)];
        let kernel = MetricKernel::bound(Metric::SquaredEuclidean, queries, train);
        self.walk(queries, &kernel, train, &mut acc, |sums, t0, tile| {
            for (j, &d) in tile.iter().enumerate() {
                sums[train_labels[t0 + j] as usize].add(-(d as f64) * inv_two_h2);
            }
        });
        acc.iter().map(OnlineLse::value).collect()
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
    let per_query = if queries.rows() == 0 { 0 } else { k.max(1).min(train.rows()) };
    let mut hits = Vec::with_capacity(queries.rows() * per_query);
    for q in queries.rows_iter() {
        let mut all: Vec<NearestHit> = train
            .rows_iter()
            .enumerate()
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

    /// The first hit of every query of a `k = 1` table, in query order.
    fn first_hits(table: &NeighborTable) -> Vec<NearestHit> {
        (0..table.num_queries()).filter_map(|q| table.first(q)).collect()
    }

    /// Runs `f` on a fresh pool of `workers` workers, so every scan inside
    /// splits into that many chunks.
    fn on_pool<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        snoopy_pool::ThreadPool::new(workers).install(f)
    }

    /// (worker count, engine) shapes: serial, the current pool's width, and
    /// three chunks over small blocks.
    fn shapes() -> [(usize, EvalEngine); 3] {
        [
            (1, EvalEngine::default()),
            (snoopy_pool::workers(), EvalEngine::default()),
            (3, EvalEngine::default().with_block_rows(16)),
        ]
    }

    #[test]
    fn engine_matches_reference_for_all_metrics() {
        let train = wavy(137, 9, 0.0);
        let queries = wavy(41, 9, 1.3);
        for metric in Metric::all() {
            let reference = nearest_reference(train.view(), queries.view(), metric);
            for (workers, engine) in shapes() {
                let got = on_pool(workers, || engine.topk(train.view(), queries.view(), metric, 1));
                assert_eq!(
                    first_hits(&got),
                    reference,
                    "metric {} workers {workers} {engine:?}",
                    metric.name()
                );
            }
        }
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let train = wavy(10, 4, 0.0);
        let empty = Matrix::zeros(0, 4);
        let kernel = crate::kernel::MetricKernel::bound(Metric::SquaredEuclidean, empty.view(), train.view());
        EvalEngine::default().update_topk(empty.view(), &kernel, train.view(), 0, &mut []);
        let table = EvalEngine::default().topk(empty.view(), wavy(3, 4, 0.5).view(), Metric::Euclidean, 1);
        assert_eq!((table.num_queries(), table.k()), (3, 0));
    }

    #[test]
    fn topk_matches_reference_for_all_metrics_and_ks() {
        let train = wavy(119, 7, 0.0);
        let queries = wavy(29, 7, 1.7);
        for metric in Metric::all() {
            for k in [1usize, 3, 10, 119, 400] {
                let reference = knn_reference(train.view(), queries.view(), metric, k);
                for (workers, engine) in shapes() {
                    let got = on_pool(workers, || engine.topk(train.view(), queries.view(), metric, k));
                    assert_eq!(got, reference, "metric {} k {k} workers {workers} {engine:?}", metric.name());
                }
            }
        }
    }

    #[test]
    fn streamed_topk_accumulates_to_the_cold_start_answer() {
        let train = wavy(90, 5, 0.0);
        let queries = wavy(21, 5, 2.4);
        let engine = EvalEngine::default().with_block_rows(8);
        let pool = snoopy_pool::ThreadPool::new(2);
        for metric in [Metric::SquaredEuclidean, Metric::Cosine] {
            for k in [1usize, 4] {
                let mut kernel = crate::kernel::MetricKernel::new(metric);
                kernel.bind_queries(queries.view());
                let mut states = vec![TopKState::new(k); queries.rows()];
                let mut consumed = 0;
                for batch in train.view().batches(26) {
                    kernel.bind_train(batch);
                    pool.install(|| {
                        engine.update_topk(queries.view(), &kernel, batch, consumed, &mut states)
                    });
                    consumed += batch.rows();
                }
                let table = NeighborTable::from_states(&states);
                let reference = knn_reference(train.view(), queries.view(), metric, k);
                assert_eq!(table, reference, "{} k {k}", metric.name());
            }
        }
    }

    #[test]
    fn table_prefixes_are_smaller_k_answers_and_votes_are_deterministic() {
        let train = wavy(64, 4, 0.0);
        let queries = wavy(11, 4, 0.9);
        let big = EvalEngine::default().topk(train.view(), queries.view(), Metric::SquaredEuclidean, 9);
        let small = EvalEngine::default().topk(train.view(), queries.view(), Metric::SquaredEuclidean, 3);
        for q in 0..queries.rows() {
            assert_eq!(big.neighbors_k(q, 3), small.neighbors(q));
            assert_eq!(big.first(q), small.first(q));
        }
        // All-identical labels: the vote is that label for every k.
        let labels = vec![2u32; 64];
        assert_eq!(big.knn_error(5, &labels, &vec![2; queries.rows()], 3), 0.0);
        assert_eq!(big.knn_error(5, &labels, &vec![1; queries.rows()], 3), 1.0);
    }

    #[test]
    fn topk_ties_resolve_to_lowest_indices_for_every_shape() {
        // Every training row identical: the top-k set must be {0, 1, .., k-1}
        // in order, for any worker count and block shape.
        let train = Matrix::from_fn(40, 3, |_, _| 2.5);
        let queries = wavy(7, 3, 0.4);
        for metric in Metric::all() {
            for (workers, engine) in
                [(1, EvalEngine::default()), (5, EvalEngine::default().with_block_rows(4))]
            {
                let table = on_pool(workers, || engine.topk(train.view(), queries.view(), metric, 6));
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
        for (workers, engine) in [(1, EvalEngine::default()), (4, EvalEngine::default().with_block_rows(9))] {
            let got = on_pool(workers, || {
                engine.class_kernel_log_sums(queries.view(), train.view(), &labels, 4, inv_two_h2)
            });
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
        let table = EvalEngine::default().topk(empty_train.view(), queries.view(), Metric::Euclidean, 3);
        assert_eq!(table.num_queries(), 5);
        assert_eq!(table.k(), 0);
        assert_eq!(table.first(0), None);
        assert_eq!(table.one_nn_error(&[], &[0, 1, 0, 1, 0]), 1.0);
        let no_queries = EvalEngine::default().topk(queries.view(), empty_train.view(), Metric::Euclidean, 3);
        assert_eq!(no_queries.num_queries(), 0);
        assert_eq!(no_queries.knn_error(3, &[0; 5], &[], 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_panics() {
        let train = wavy(4, 3, 0.0);
        let queries = wavy(4, 5, 0.0);
        let mut states = vec![TopKState::new(1); 4];
        let kernel =
            crate::kernel::MetricKernel::bound(Metric::SquaredEuclidean, queries.view(), train.view());
        EvalEngine::default().update_topk(queries.view(), &kernel, train.view(), 0, &mut states);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn stale_kernel_binding_panics() {
        let train = wavy(6, 3, 0.0);
        let queries = wavy(4, 3, 0.0);
        let mut states = vec![TopKState::new(1); 4];
        // Kernel bound to a *prefix* of the training batch: a loud error,
        // not a silent wrong answer.
        let kernel =
            crate::kernel::MetricKernel::bound(Metric::Cosine, queries.view(), train.view().slice_rows(0, 3));
        EvalEngine::default().update_topk(queries.view(), &kernel, train.view(), 0, &mut states);
    }
}
