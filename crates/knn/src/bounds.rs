//! The cluster-scan core of the exact pruned index.
//!
//! [`crate::sharded::ShardedIndex`] holds a compacted k-means [`Partition`]
//! and answers queries through its one visit-major loop
//! ([`Partition::update_topk`]): each query orders the clusters by their
//! triangle-inequality lower bound and visits them until a bound can no
//! longer beat its k-th admitted distance, while the loop groups the
//! visits by cluster — it sweeps the clusters, obtains each one that
//! queries wait on once from the shard pager (which faults the shard in
//! unless it is still resident), and scans the [`ClusterSlice`] for every
//! waiting query through the one f32 tile scan, split over the pool's
//! workers. Every prune decision goes through [`PruneBounds`].
//!
//! ## Exactness argument
//!
//! Let `e(a, b)` be the true Euclidean distance. For a query `q`, a cluster
//! centroid `c` with radius `r_c = max_{x ∈ c} e(x, c)`, and a member row
//! `x`, the triangle inequality gives two lower bounds:
//!
//! * **cluster bound** — `e(q, x) ≥ max(0, e(q, c) − r_c)`,
//! * **per-row bound** — `e(q, x) ≥ |e(q, c) − e(x, c)|`.
//!
//! [`Metric::SquaredEuclidean`] and [`Metric::Euclidean`] are monotone
//! remappings of `e` (squaring, identity), so a bound `b` on `e` remaps to a
//! bound `b²` (resp. `b`) on the stored distance, and a candidate can only be
//! admitted if its remapped distance is lexicographically `< (τ, i)` where
//! `τ` is the current k-th admitted distance. A cluster or row is skipped
//! **only** when its remapped bound strictly exceeds `τ`; on equality it is
//! still scanned, because an equal-distance row with a lower global index
//! must still be admitted (the crate-wide `(distance, index)` tie-break).
//!
//! Floating point: the engine computes distances in `f32` through the
//! tile-blocked [`MetricKernel`] — the norm trick
//! `‖q − x‖² = ‖q‖² + ‖x‖² − 2⟨q, x⟩` — while the index computes all
//! centroid geometry (`e(q, c)`, `e(x, c)`, `r_c`) in `f64`, where it is
//! accurate to ~`2⁻⁵⁰`. The norm trick's rounding error is *absolute*, not
//! relative: cancellation between the norm and dot terms can make the
//! computed `f32` squared distance smaller than the true one by up to
//! `~(d + 11)·ε_f32·(‖q‖ + ‖x‖)²` (it is clamped at zero, which only raises
//! it). Every prune comparison therefore runs in **squared-distance space**
//! and requires
//!
//! ```text
//! lb² · (1 − (2d + 32)·ε)  −  coeff·ε·(‖q‖ + max_row_norm)²  >  τ² + guard
//! ```
//!
//! where `lb` is the `f64` Euclidean lower bound, the relative slack covers
//! the `f64` geometry, the absolute term (`coeff = 2(d + 16)`, a global
//! `max_row_norm` so the cluster scan order's early exit stays monotone in
//! `lb`) covers the kernel's cancellation error, `τ²` is the squared current
//! k-th admitted distance (inflated by `8ε` for Euclidean consumers to cover
//! the square root's rounding), and `guard` is the smallest normal `f32`,
//! covering subnormal underflow (a squared distance below the normal `f32`
//! range can round to exactly `0.0` while the `f64` bound stays positive) —
//! in particular a threshold of `0` (a perfect hit already admitted)
//! disables pruning outright. The slack and guards sacrifice a vanishing
//! amount of pruning power and never correctness; the proptests in
//! `proptest_clustered.rs` pin the bit-for-bit parity across metrics, `k`,
//! duplicate rows, and degenerate shapes, and the subnormal-underflow
//! regression test pins the guard.
//!
//! Inside a visited cluster, rows are evaluated with the engine's own tile
//! kernel ([`MetricKernel::tile_with`]) whenever a whole tile survives the
//! per-row bound (the common case), falling back to the bit-identical
//! per-pair path when a tile is broken by a pruned row — distance values
//! never depend on which path computed them.
//!
//! [`Metric::Cosine`] is *not* a metric (no triangle inequality on the
//! dissimilarity), so the index refuses it and cosine consumers use the
//! exhaustive [`crate::engine::EvalEngine`].

use std::ops::Range;

use crate::engine::{TopKState, DEFAULT_TILE_ROWS};
use crate::kernel::MetricKernel;
use crate::metric::Metric;
use crate::sharded::Pager;
use snoopy_linalg::{DatasetView, Matrix};

/// Iteration cap for the k-means run of every index build: Lloyd's converges
/// fast on the coarse partitions used here, and a stale assignment only
/// costs pruning power, never correctness.
pub(crate) const KMEANS_MAX_ITERS: usize = 16;

/// Deterministic seed for the index's internal k-means run. Clustering
/// quality only affects speed, never results, so a fixed seed keeps index
/// builds reproducible without threading a seed through every call site.
pub const KMEANS_SEED: u64 = 0x5e3d_c0de;

/// `‖a − b‖₂` accumulated in `f64` — the bound-side geometry is computed at
/// double precision so only the `f32` kernel side needs slack.
pub(crate) fn euclid_f64(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    acc.sqrt()
}

/// `‖a‖₂` accumulated in `f64` (feeds the kernel-error term of the bounds).
pub(crate) fn norm_f64(a: &[f32]) -> f64 {
    a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt()
}

/// The k-th admitted distance of a full `state`, `None` while it holds
/// fewer than `k` hits (nothing can be pruned yet).
#[inline]
fn kth_distance(state: &TopKState) -> Option<f32> {
    (state.hits().len() == state.k()).then(|| state.hits().last().expect("full state").distance)
}

/// Pruning counters accumulated by the pruned query paths.
///
/// `clusters_total` / `rows_total` count the work the exhaustive engine
/// would have done (per query); `clusters_visited` counts clusters whose
/// rows were looked at, `rows_scanned` counts distance evaluations, and
/// `rows_pruned` counts rows skipped by a per-row bound inside visited
/// clusters. Rows in never-visited clusters appear in none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Queries answered.
    pub queries: usize,
    /// Clusters whose rows were scanned (summed over queries).
    pub clusters_visited: usize,
    /// Clusters times queries — the exhaustive cluster-visit count.
    pub clusters_total: usize,
    /// Query–row distance evaluations actually performed.
    pub rows_scanned: usize,
    /// Rows skipped by a per-row bound inside visited clusters.
    pub rows_pruned: usize,
    /// Training rows times queries — the exhaustive distance count.
    pub rows_total: usize,
}

impl PruneStats {
    /// Fraction of cluster visits skipped: `1 − visited / total` (0 when no
    /// query ran).
    pub fn cluster_prune_rate(&self) -> f64 {
        if self.clusters_total == 0 {
            0.0
        } else {
            1.0 - self.clusters_visited as f64 / self.clusters_total as f64
        }
    }
}

/// Heap footprint of the pruned index, bucketed by role — the `resident`
/// part of [`crate::sharded::PagedResidentBytes`], so the footprint is
/// measured, not asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// The gathered f32 training rows (what a scan streams).
    pub train_rows: usize,
    /// Centroid rows plus per-cluster radii and offsets.
    pub centroids: usize,
    /// Per-row index metadata: centroid distances, original-row ids, and
    /// the kernel's norm cache.
    pub row_meta: usize,
}

impl ResidentBytes {
    /// Sum over all buckets.
    pub fn total(&self) -> usize {
        self.train_rows + self.centroids + self.row_meta
    }
}

/// The per-index prune-comparison constants: metric, dimension-derived
/// slack and kernel-error coefficients, the subnormal guard, and the global
/// largest member norm. Built once per index; every prune decision routes
/// through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PruneBounds {
    metric: Metric,
    /// Largest member norm `max_x ‖x‖` in `f64` — global (not per cluster or
    /// shard) so the bound-ordered scan's early exit stays monotone in the
    /// lower bound.
    max_norm: f64,
    /// Kernel-error coefficient `2(d + 16)·ε_f32`: multiplied by
    /// `(‖q‖ + max_norm)²` it upper-bounds how far below the true squared
    /// distance the norm-trick `f32` kernel can land.
    err_coeff: f64,
    /// Relative bound deflation `1 − (2d + 32)·ε_f32`, covering the `f64`
    /// geometry side.
    slack: f64,
    /// Absolute prune guard covering f32 subnormal underflow, in squared
    /// space: the smallest normal f32. In particular `τ = 0` (a perfect hit
    /// already admitted) disables pruning entirely, preserving the
    /// zero-distance tie-break.
    abs_guard: f64,
}

impl PruneBounds {
    /// Constants for a `dim`-dimensional index whose largest member norm is
    /// `max_norm`.
    pub fn new(metric: Metric, dim: usize, max_norm: f64) -> Self {
        let d = dim as f64;
        PruneBounds {
            metric,
            max_norm,
            err_coeff: 2.0 * (d + 16.0) * f32::EPSILON as f64,
            slack: 1.0 - (2.0 * d + 32.0) * f32::EPSILON as f64,
            abs_guard: f32::MIN_POSITIVE as f64,
        }
    }

    /// The current stored threshold mapped into squared-distance space with
    /// the safety inflation of the [module docs](self): the stored distance
    /// itself for squared-Euclidean consumers, `τ²·(1 + 8ε)` for Euclidean
    /// ones (covering the square root's rounding). `∞` (state not yet full)
    /// maps to `∞` and never prunes.
    #[inline]
    pub fn tau_sq(&self, tau: f32) -> f64 {
        let t = tau as f64;
        match self.metric {
            Metric::SquaredEuclidean => t,
            _ => t * t * (1.0 + 8.0 * f32::EPSILON as f64),
        }
    }

    /// The per-query kernel-error margin: how far below the true squared
    /// distance the norm-trick `f32` kernel can land for any indexed row
    /// (`qn` is the query's `f64` Euclidean norm).
    #[inline]
    pub fn kernel_err(&self, qn: f64) -> f64 {
        let s = qn + self.max_norm;
        self.err_coeff * s * s
    }

    /// Whether a Euclidean-space lower bound `lb` proves that no candidate
    /// can be admitted against the squared threshold `tau_sq`: the squared,
    /// slack-deflated bound must clear it by the kernel-error margin `err`
    /// plus the absolute subnormal guard. Monotone in `lb` for a fixed
    /// query, which is what lets a bound-ordered scan stop at the first
    /// pruned cluster.
    #[inline]
    pub fn prunes(&self, lb: f64, tau_sq: f64, err: f64) -> bool {
        lb * lb * self.slack - err > tau_sq + self.abs_guard
    }
}

/// The compacted k-means partition the pruned index keeps resident: the
/// non-empty clusters' centroids and radii, their member ids, and the prune
/// constants.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    /// `nlist × d` centroids (empty clusters dropped).
    pub centroids: Matrix,
    /// Per-cluster radius `r_c = max_{x ∈ c} e(x, c)` in `f64`.
    pub radii: Vec<f64>,
    /// Cluster-contiguous original row ids, ascending within a cluster;
    /// cluster `c` owns `members[offsets[c]..offsets[c + 1]]`.
    pub members: Vec<usize>,
    pub offsets: Vec<usize>,
    pub bounds: PruneBounds,
}

impl Partition {
    /// Partitions `source` by `assignments` against `centroids`: drops the
    /// empty clusters, groups the member ids cluster-contiguously (ascending
    /// within a cluster), and takes the radii and the global largest member
    /// norm in one pass over the source.
    ///
    /// # Panics
    /// Panics on an assignment count mismatch or an assignment out of
    /// `centroids`' range.
    pub fn new(source: DatasetView<'_>, metric: Metric, centroids: &Matrix, assignments: &[usize]) -> Self {
        assert_eq!(assignments.len(), source.rows(), "one assignment per training row required");
        let k = centroids.rows();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (row, &a) in assignments.iter().enumerate() {
            assert!(a < k, "assignment {a} out of range for {k} centroids");
            groups[a].push(row);
        }
        let keep: Vec<usize> = (0..k).filter(|&c| !groups[c].is_empty()).collect();
        let centroids = centroids.view().select_rows(&keep);
        let mut members = Vec::with_capacity(source.rows());
        let mut offsets = vec![0usize];
        let mut radii = Vec::with_capacity(keep.len());
        let mut max_norm = 0.0f64;
        for (cent, &c) in centroids.rows_iter().zip(&keep) {
            let mut radius = 0.0f64;
            for &row in &groups[c] {
                let x = source.row(row);
                radius = radius.max(euclid_f64(x, cent));
                max_norm = max_norm.max(norm_f64(x));
            }
            members.extend_from_slice(&groups[c]);
            offsets.push(members.len());
            radii.push(radius);
        }
        Partition {
            centroids,
            radii,
            members,
            offsets,
            bounds: PruneBounds::new(metric, source.cols(), max_norm),
        }
    }

    /// Number of (non-empty) clusters.
    pub fn num_clusters(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Cluster `c`'s positions in `members`.
    pub fn cluster(&self, c: usize) -> Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// The metric the partition's bounds are built for.
    pub fn metric(&self) -> Metric {
        self.bounds.metric
    }

    /// Heap bytes of the centroid rows, radii and offsets.
    pub fn geometry_bytes(&self) -> usize {
        self.centroids.rows() * self.centroids.cols() * size_of::<f32>()
            + self.radii.len() * size_of::<f64>()
            + self.offsets.len() * size_of::<usize>()
    }

    /// Query `q`'s triangle-inequality lower bound on any member of
    /// cluster `c`: `max(0, e(q, c) − r_c)`.
    fn lower_bound(&self, q: &[f32], c: usize) -> f64 {
        (euclid_f64(q, self.centroids.row(c)) - self.radii[c]).max(0.0)
    }

    /// The visit-major loop: folds every cluster the `pager` hands out into
    /// the running top-k state of each query row. Per query it orders the
    /// clusters by ascending lower bound and visits them until the first one
    /// whose bound can no longer beat the k-th admitted distance — but the
    /// visits are grouped by cluster, not by query. Each query waits on its
    /// next unpruned cluster; the loop sweeps the clusters in index order
    /// (again and again until no query waits), obtains each swept cluster
    /// with waiting queries once, and scans it for all of them, split over
    /// the pool's workers. A scanned query then runs its own τ check on its
    /// next cluster and waits there, or is done. Every query still visits
    /// its own clusters in its own bound order, checking the same τ, so the
    /// states and the counters equal those of a query-at-a-time loop bit
    /// for bit; the grouping changes only how often a shard is loaded.
    /// Admitted indices are member ids.
    pub fn update_topk(
        &self,
        pager: &mut Pager<'_>,
        queries: DatasetView<'_>,
        states: &mut [TopKState],
    ) -> PruneStats {
        let nlist = self.num_clusters();
        let nq = queries.rows();
        let mut stats = PruneStats {
            queries: nq,
            clusters_total: nq * nlist,
            rows_total: nq * self.members.len(),
            ..PruneStats::default()
        };
        let schedule = Schedule::new(self, queries);
        let mut waiting: Vec<Vec<Waiter<'_>>> = (0..nlist).map(|_| Vec::new()).collect();
        let mut active = 0;
        for (query, state) in states.iter_mut().enumerate() {
            let mut w = Waiter { query, pos: 0, state };
            schedule.check_next(&mut w);
            if let Some(c) = schedule.next(&w) {
                waiting[c].push(w);
                active += 1;
            }
        }
        // Buffers and counters per worker chunk; a tile never spans two
        // clusters.
        let largest = (0..nlist).map(|c| self.cluster(c).len()).max().unwrap_or(0);
        let tile_len = DEFAULT_TILE_ROWS.min(largest.max(1));
        let workers = snoopy_pool::workers();
        let mut buffers: Vec<ChunkBuffers> = (0..workers).map(|_| ChunkBuffers::new(tile_len)).collect();
        let mut here = Vec::new();
        while active > 0 {
            for c in 0..nlist {
                if waiting[c].is_empty() {
                    continue;
                }
                std::mem::swap(&mut here, &mut waiting[c]);
                let slice = pager.obtain(c);
                let serve = |part: &mut [Waiter<'_>], s: &mut ChunkBuffers| {
                    for w in part {
                        schedule.visit(&slice, c, w, s);
                    }
                };
                let chunks = workers.min(here.len());
                if chunks <= 1 {
                    serve(&mut here, &mut buffers[0]);
                } else {
                    let (chunk, serve) = (here.len().div_ceil(chunks), &serve);
                    snoopy_pool::scope(|scope| {
                        for (part, s) in here.chunks_mut(chunk).zip(buffers.iter_mut()) {
                            scope.spawn(move || serve(part, s));
                        }
                    });
                }
                for w in here.drain(..) {
                    match schedule.next(&w) {
                        Some(next) => waiting[next].push(w),
                        None => active -= 1,
                    }
                }
            }
        }
        for s in &buffers {
            stats.clusters_visited += s.stats.clusters_visited;
            stats.rows_scanned += s.stats.rows_scanned;
            stats.rows_pruned += s.stats.rows_pruned;
        }
        stats
    }
}

/// One query in the visit-major loop: its row, its cursor into its cluster
/// order, and its running state.
struct Waiter<'s> {
    query: usize,
    /// Position in the query's cluster order of the cluster it waits on;
    /// `nlist` once it is done.
    pos: usize,
    state: &'s mut TopKState,
}

/// The per-query state of one [`Partition::update_topk`] call that every
/// visit reads.
struct Schedule<'a> {
    part: &'a Partition,
    queries: DatasetView<'a>,
    /// The kernel with the query side bound.
    kernel: MetricKernel,
    /// Per query: its kernel-error margin ([`PruneBounds::kernel_err`]).
    errs: Vec<f64>,
    /// `nq × nlist` cluster ids, each query's in ascending bound order, ties
    /// by id. Only the ids are kept: a τ check recomputes its bound, to the
    /// same bits.
    order: Vec<u32>,
    nlist: usize,
}

impl<'a> Schedule<'a> {
    fn new(part: &'a Partition, queries: DatasetView<'a>) -> Self {
        let nlist = part.num_clusters();
        let mut order = vec![0u32; queries.rows() * nlist];
        let mut ranked = Vec::with_capacity(nlist);
        for (q, ids) in queries.rows_iter().zip(order.chunks_exact_mut(nlist)) {
            ranked.clear();
            ranked.extend((0..nlist).map(|c| (part.lower_bound(q, c), c)));
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for (id, &(_, c)) in ids.iter_mut().zip(&ranked) {
                *id = u32::try_from(c).expect("cluster ids fit in u32");
            }
        }
        let mut kernel = MetricKernel::new(part.metric());
        kernel.bind_queries(queries);
        let errs = queries.rows_iter().map(|q| part.bounds.kernel_err(norm_f64(q))).collect();
        Schedule { part, queries, kernel, errs, order, nlist }
    }

    /// The cluster `w` waits on, `None` once it is done.
    fn next(&self, w: &Waiter<'_>) -> Option<usize> {
        (w.pos < self.nlist).then(|| self.order[w.query * self.nlist + w.pos] as usize)
    }

    /// The τ check on `w`'s next cluster: clusters come in ascending bound
    /// order and τ only shrinks, so the first cluster τ prunes ends the
    /// query.
    fn check_next(&self, w: &mut Waiter<'_>) {
        let (Some(c), Some(tau)) = (self.next(w), kth_distance(w.state)) else { return };
        let bounds = &self.part.bounds;
        let lb = self.part.lower_bound(self.queries.row(w.query), c);
        if bounds.prunes(lb, bounds.tau_sq(tau), self.errs[w.query]) {
            w.pos = self.nlist;
        }
    }

    /// Scans cluster `c`'s `slice` for `w`, then moves `w` on to its next
    /// cluster.
    fn visit(&self, slice: &ClusterSlice<'_>, c: usize, w: &mut Waiter<'_>, s: &mut ChunkBuffers) {
        let q = self.queries.row(w.query);
        let cx = QueryCtx {
            bounds: &self.part.bounds,
            q,
            qv: self.kernel.query_cached(w.query),
            err: self.errs[w.query],
        };
        s.stats.clusters_visited += 1;
        let dqc = euclid_f64(q, self.part.centroids.row(c));
        slice.scan(&cx, dqc, w.state, &mut s.tile, &mut s.stats);
        w.pos += 1;
        self.check_next(w);
    }
}

/// One worker chunk's distance tile and counters.
struct ChunkBuffers {
    tile: Vec<f32>,
    stats: PruneStats,
}

impl ChunkBuffers {
    fn new(tile_len: usize) -> Self {
        ChunkBuffers { tile: vec![0.0; tile_len], stats: PruneStats::default() }
    }
}

/// The per-query constants every cluster scan of one query shares.
struct QueryCtx<'q> {
    bounds: &'q PruneBounds,
    q: &'q [f32],
    /// The kernel's query-side scalar of `q`.
    qv: f32,
    /// The kernel-error margin of `q` ([`PruneBounds::kernel_err`]).
    err: f64,
}

/// A row buffer with everything a scan derives from it. Rows are addressed
/// in `data` — never re-sliced — because the kernel's norm cache indexes
/// rows of that view.
#[derive(Debug, Clone)]
pub(crate) struct ScanRows {
    pub data: Matrix,
    /// Per row: `e(x, c)` to its own cluster's centroid in `f64`.
    pub row_center: Vec<f64>,
    /// The tile kernel with `data` bound as its train side.
    pub kernel: MetricKernel,
}

impl ScanRows {
    /// `data` with `metric`'s kernel bound to it.
    pub fn new(metric: Metric, data: Matrix, row_center: Vec<f64>) -> Self {
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_train(data.view());
        ScanRows { data, row_center, kernel }
    }

    /// Adds the heap footprint of the rows, the centroid distances and the
    /// norm cache to `rb`.
    pub fn add_bytes(&self, rb: &mut ResidentBytes) {
        rb.train_rows += self.data.rows() * self.data.cols() * size_of::<f32>();
        rb.row_meta +=
            self.row_center.len() * size_of::<f64>() + self.kernel.train_bound() * size_of::<f32>();
    }
}

/// One visited cluster as the scan reads it: every row of `rows` (a shard),
/// whose original row ids are `ids`.
pub(crate) struct ClusterSlice<'s> {
    pub rows: &'s ScanRows,
    pub ids: &'s [usize],
}

impl ClusterSlice<'_> {
    /// The f32 scan, one distance tile at a time: a tile unbroken by the
    /// per-row bound goes through the tile kernel; a broken tile falls back
    /// to the bit-identical per-pair path with a live (row-by-row)
    /// threshold.
    fn scan(
        &self,
        cx: &QueryCtx<'_>,
        dqc: f64,
        state: &mut TopKState,
        tile: &mut [f32],
        stats: &mut PruneStats,
    ) {
        let (data, kernel) = (self.rows.data.view(), &self.rows.kernel);
        let centers = &self.rows.row_center;
        for (t, (ids, centers)) in self.ids.chunks(tile.len()).zip(centers.chunks(tile.len())).enumerate() {
            let (r, len) = (t * tile.len(), ids.len());
            // Pre-pass: is the whole tile admissible as one kernel call?
            // (The tile-start τ is stale after mid-tile admissions, but a
            // stale — larger — τ only keeps rows a fresh one might prune, so
            // exactness never depends on it.)
            let fast = kth_distance(state).is_none_or(|tau| {
                let tau_sq = cx.bounds.tau_sq(tau);
                !centers.iter().any(|&rc| cx.bounds.prunes((dqc - rc).abs(), tau_sq, cx.err))
            });
            if fast {
                let out = &mut tile[..len];
                kernel.tile_with(cx.q, cx.qv, data, r, out);
                for (&d, &id) in out.iter().zip(ids) {
                    state.offer(d, id);
                }
                stats.rows_scanned += len;
            } else {
                for (j, (&id, &rc)) in ids.iter().zip(centers).enumerate() {
                    if let Some(tau) = kth_distance(state) {
                        if cx.bounds.prunes((dqc - rc).abs(), cx.bounds.tau_sq(tau), cx.err) {
                            stats.rows_pruned += 1;
                            continue;
                        }
                    }
                    state.offer(kernel.pair_with(cx.q, cx.qv, data, r + j), id);
                    stats.rows_scanned += 1;
                }
            }
        }
    }
}
