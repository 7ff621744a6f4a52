//! The one cluster-scan core of the two exact pruned indexes.
//!
//! The fully-resident [`crate::clustered::ClusteredIndex`] and the
//! shard-paged [`crate::sharded::ShardedIndex`] hold the same compacted
//! k-means [`Partition`] and answer queries through its one bound-ordered
//! visit loop ([`Partition::update_topk`]): order the clusters by their
//! triangle-inequality lower bound, visit them until a bound can no longer
//! beat the k-th admitted distance, and scan each visited [`ClusterSlice`]
//! of a [`ScanRows`] row store through the one f32 tile scan or the one
//! int8 two-phase scan. The indexes differ only in how a visited cluster's
//! rows are obtained ([`ClusterSource`]): the resident index borrows them
//! from its regrouped buffer, the paged index commits a prefetched shard or
//! faults one in.
//!
//! Every prune decision goes through [`PruneBounds`]. Both indexes compare
//! `f64` Euclidean lower bounds against the `f32` distances the tile kernel
//! admits; the inflation/deflation terms that make that comparison sound
//! (relative slack for the f64 geometry, an absolute kernel-error margin
//! for the norm-trick cancellation, the subnormal guard, the Euclidean `τ²`
//! inflation) are derived in the [`crate::clustered`] module docs.

use std::ops::Range;

use crate::clustered::{PruneStats, ResidentBytes};
use crate::engine::TopKState;
use crate::kernel::MetricKernel;
use crate::metric::Metric;
use crate::quantized::{AffineQuantizer, QuantizedQuery, QuantizedShadow};
use snoopy_linalg::{DatasetView, Matrix};

/// Iteration cap for the k-means run of every index build: Lloyd's converges
/// fast on the coarse partitions used here, and a stale assignment only
/// costs pruning power, never correctness.
pub(crate) const KMEANS_MAX_ITERS: usize = 16;

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
    /// the safety inflation of the [`crate::clustered`] module docs: the
    /// stored distance itself for squared-Euclidean consumers,
    /// `τ²·(1 + 8ε)` for Euclidean ones (covering the square root's
    /// rounding). `∞` (state not yet full) maps to `∞` and never prunes.
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

    /// The [`PruneBounds::prunes`] inequality solved for the bound: a
    /// non-negative Euclidean lower bound prunes iff it strictly exceeds
    /// `√((τ² + guard + err) / slack)`. The quantized scans cache this per
    /// τ value so the per-row test `â − margin > (T + r_i)²` needs no
    /// square root (`τ = ∞`, state not yet full, maps to `∞` and never
    /// prunes).
    #[inline]
    pub fn prune_threshold(&self, tau: f32, err: f64) -> f64 {
        ((self.tau_sq(tau) + self.abs_guard + err) / self.slack).sqrt()
    }
}

/// The compacted k-means partition both exact pruned indexes keep resident:
/// the non-empty clusters' centroids and radii, their member ids, and the
/// prune constants.
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
    /// norm in one pass over the source. `row_center`, when given, receives
    /// every member's `e(x, c)` in member order.
    ///
    /// # Panics
    /// Panics on an assignment count mismatch or an assignment out of
    /// `centroids`' range.
    pub fn new(
        source: DatasetView<'_>,
        metric: Metric,
        centroids: &Matrix,
        assignments: &[usize],
        mut row_center: Option<&mut Vec<f64>>,
    ) -> Self {
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
                let d = euclid_f64(x, cent);
                radius = radius.max(d);
                max_norm = max_norm.max(norm_f64(x));
                if let Some(rc) = row_center.as_deref_mut() {
                    rc.push(d);
                }
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

    /// The bound-ordered visit loop both indexes' `update_topk` run: folds
    /// every cluster `src` hands out into the running top-k state of each
    /// query row. Per query it orders the clusters by ascending lower bound,
    /// visits them until the first one whose bound can no longer beat the
    /// k-th admitted distance, and scans each visited slice — through the
    /// int8 two-phase scan when it carries a shadow the query fits, the f32
    /// tile scan otherwise — in tiles of at most `tile_rows` rows. Admitted
    /// indices are member ids plus `offset`; `exclude_self = Some(base)`
    /// declares query row `i` to be global training row `base + i` and skips
    /// that one pair (leave-one-out).
    pub fn update_topk(
        &self,
        src: &mut impl ClusterSource,
        queries: DatasetView<'_>,
        offset: usize,
        states: &mut [TopKState],
        exclude_self: Option<usize>,
        tile_rows: usize,
    ) -> PruneStats {
        let mut stats = PruneStats::default();
        // Scratch reused across queries; a tile never spans two clusters, and
        // the int8 buffers are sized on the first quantized visit.
        let largest = (0..self.num_clusters()).map(|c| self.cluster(c).len()).max().unwrap_or(0);
        let mut tile = vec![0.0f32; tile_rows.min(largest.max(1))];
        let mut order = Vec::with_capacity(self.num_clusters());
        let (mut qtile, mut keep, mut wbuf, mut vbuf) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let kernel = MetricKernel::new(self.metric());
        for (qi, (q, state)) in queries.rows_iter().zip(states).enumerate() {
            order.clear();
            for (c, cent) in self.centroids.rows_iter().enumerate() {
                let dqc = euclid_f64(q, cent);
                order.push(((dqc - self.radii[c]).max(0.0), dqc, c));
            }
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            stats.queries += 1;
            stats.clusters_total += self.num_clusters();
            stats.rows_total += self.members.len();
            let cx = QueryCtx {
                bounds: &self.bounds,
                q,
                qv: kernel.query_value(q),
                err: self.bounds.kernel_err(norm_f64(q)),
                offset,
                skip: exclude_self.map_or(usize::MAX, |b| b + qi),
            };
            // The int8 context is prepared against the visited slice's own
            // shadow (its margin depends on that shadow's max code norm) and
            // reused while slices share it: the resident slices share one,
            // every shard has its own. Identity by address is sound within a
            // query, which visits a cluster at most once while the paged
            // cache keeps each cluster's shard in its own slot. `None`: the
            // query's norm trips the overflow guard, and it scans exactly.
            let mut prepared: (*const QuantizedShadow, Option<QuantizedQuery>) = (std::ptr::null(), None);
            for (pos, &(lb, dqc, _)) in order.iter().enumerate() {
                let tau_sq = kth_distance(state).map(|tau| self.bounds.tau_sq(tau));
                // Clusters are ordered by ascending bound and τ only shrinks,
                // so the first unbeatable cluster ends the query.
                if tau_sq.is_some_and(|t| self.bounds.prunes(lb, t, cx.err)) {
                    break;
                }
                stats.clusters_visited += 1;
                let slice = src.obtain(&order, pos, tau_sq, cx.err);
                let int8 = slice.rows.shadow.as_ref().and_then(|sh| {
                    if !std::ptr::eq(sh, prepared.0) {
                        prepared = (sh, sh.prepare_query(q, &mut wbuf, &mut vbuf));
                    }
                    prepared.1.map(|qq| (sh, qq))
                });
                match int8 {
                    Some((sh, qq)) => {
                        qtile.resize(tile.len(), 0);
                        keep.resize(tile.len(), false);
                        slice.scan_int8(&cx, sh, &qq, &vbuf, state, &mut qtile, &mut keep, &mut stats);
                    }
                    None => slice.scan_f32(&cx, dqc, state, &mut tile, &mut stats),
                }
            }
        }
        stats
    }
}

/// How the visit loop obtains the rows of a visited cluster.
pub(crate) trait ClusterSource {
    /// The slice of cluster `order[pos].2`, called once per visit after the
    /// τ prune check passed: `tau_sq` is that check's squared threshold
    /// (`None` while the query's state is not full) and `err` the query's
    /// kernel-error margin.
    fn obtain(
        &mut self,
        order: &[(f64, f64, usize)],
        pos: usize,
        tau_sq: Option<f64>,
        err: f64,
    ) -> ClusterSlice<'_>;
}

/// The per-query constants every cluster scan of one query shares.
struct QueryCtx<'q> {
    bounds: &'q PruneBounds,
    q: &'q [f32],
    /// The kernel's query-side scalar of `q`.
    qv: f32,
    /// The kernel-error margin of `q` ([`PruneBounds::kernel_err`]).
    err: f64,
    offset: usize,
    skip: usize,
}

/// A row buffer with everything a scan derives from it. Rows are addressed
/// in `data` — never re-sliced — because the kernel's norm cache and the
/// shadow's codes index rows of that view.
#[derive(Debug, Clone)]
pub(crate) struct ScanRows {
    pub data: Matrix,
    /// Per row: `e(x, c)` to its own cluster's centroid in `f64`.
    pub row_center: Vec<f64>,
    /// The tile kernel with `data` bound as its train side.
    pub kernel: MetricKernel,
    /// The int8 shadow of `data` (`None` when unquantized, or when the
    /// overflow guard rejected the rows — scans then stay exact-only).
    pub shadow: Option<QuantizedShadow>,
}

impl ScanRows {
    /// `data` with `metric`'s kernel bound to it, unquantized.
    pub fn new(metric: Metric, data: Matrix, row_center: Vec<f64>) -> Self {
        let mut kernel = MetricKernel::new(metric);
        kernel.bind_train(data.view());
        ScanRows { data, row_center, kernel, shadow: None }
    }

    /// Attaches the int8 shadow of the rows against `quantizer`.
    pub fn quantize(&mut self, quantizer: AffineQuantizer) {
        self.shadow = QuantizedShadow::build(self.data.view(), quantizer);
    }

    /// Adds the heap footprint of the rows, the shadow, the centroid
    /// distances and the norm cache to `rb`.
    pub fn add_bytes(&self, rb: &mut ResidentBytes) {
        rb.train_rows += self.data.rows() * self.data.cols() * size_of::<f32>();
        rb.quantized_codes += self.shadow.as_ref().map_or(0, |s| s.code_bytes());
        rb.quantized_meta += self.shadow.as_ref().map_or(0, |s| s.meta_bytes());
        rb.row_meta +=
            self.row_center.len() * size_of::<f64>() + self.kernel.train_bound() * size_of::<f32>();
    }
}

/// One visited cluster as the scans read it: rows
/// `start..start + ids.len()` of `rows`, whose original row ids are `ids`.
pub(crate) struct ClusterSlice<'s> {
    pub rows: &'s ScanRows,
    pub start: usize,
    pub ids: &'s [usize],
}

impl ClusterSlice<'_> {
    /// The f32 scan, one distance tile at a time: a tile unbroken by the
    /// per-row bound or the self-exclusion goes through the tile kernel; a
    /// broken tile falls back to the bit-identical per-pair path with a
    /// live (row-by-row) threshold.
    fn scan_f32(
        &self,
        cx: &QueryCtx<'_>,
        dqc: f64,
        state: &mut TopKState,
        tile: &mut [f32],
        stats: &mut PruneStats,
    ) {
        let (data, kernel) = (self.rows.data.view(), &self.rows.kernel);
        let centers = &self.rows.row_center[self.start..self.start + self.ids.len()];
        for (t, (ids, centers)) in self.ids.chunks(tile.len()).zip(centers.chunks(tile.len())).enumerate() {
            let (r, len) = (self.start + t * tile.len(), ids.len());
            // Pre-pass: is the whole tile admissible as one kernel call?
            // (The tile-start τ is stale after mid-tile admissions, but a
            // stale — larger — τ only keeps rows a fresh one might prune, so
            // exactness never depends on it.)
            let mut fast = cx.skip == usize::MAX || !ids.iter().any(|&o| cx.offset + o == cx.skip);
            if fast {
                if let Some(tau) = kth_distance(state) {
                    let tau_sq = cx.bounds.tau_sq(tau);
                    fast = !centers.iter().any(|&rc| cx.bounds.prunes((dqc - rc).abs(), tau_sq, cx.err));
                }
            }
            if fast {
                let out = &mut tile[..len];
                kernel.tile_with(cx.q, cx.qv, data, r, out);
                for (&d, &id) in out.iter().zip(ids) {
                    state.offer(d, cx.offset + id);
                }
                stats.rows_scanned += len;
            } else {
                for (j, (&id, &rc)) in ids.iter().zip(centers).enumerate() {
                    let global = cx.offset + id;
                    if global == cx.skip {
                        continue;
                    }
                    if let Some(tau) = kth_distance(state) {
                        if cx.bounds.prunes((dqc - rc).abs(), cx.bounds.tau_sq(tau), cx.err) {
                            stats.rows_pruned += 1;
                            continue;
                        }
                    }
                    state.offer(kernel.pair_with(cx.q, cx.qv, data, r + j), global);
                    stats.rows_scanned += 1;
                }
            }
        }
    }

    /// The int8 two-phase scan: phase 1 computes the exact integer dots of
    /// a whole tile from `shadow`'s codes (one byte per dimension of row
    /// traffic) and classifies the tile against the widened bound in one
    /// straight-line f64 pass; phase 2 re-ranks the surviving rows through
    /// the exact per-pair kernel — interleaved per tile, so each admission
    /// tightens τ for the next tile. The classify pass uses the τ of the
    /// tile *start* (a stale — larger — τ only keeps rows a fresh one might
    /// prune) and the prune threshold `T` is recomputed only when τ changes
    /// (see [`PruneBounds::prune_threshold`]).
    #[allow(clippy::too_many_arguments)] // the scan's full per-query context
    fn scan_int8(
        &self,
        cx: &QueryCtx<'_>,
        shadow: &QuantizedShadow,
        qq: &QuantizedQuery,
        v: &[i16],
        state: &mut TopKState,
        qtile: &mut [i32],
        keep: &mut [bool],
        stats: &mut PruneStats,
    ) {
        let mut cached_tau = f32::NAN; // NaN ≠ everything → first full state recomputes
        let mut cached_threshold = f64::INFINITY;
        let (data, kernel) = (self.rows.data.view(), &self.rows.kernel);
        for (t, ids) in self.ids.chunks(qtile.len()).enumerate() {
            let (r, len) = (self.start + t * qtile.len(), ids.len());
            let dots = &mut qtile[..len];
            shadow.approx_dot_tile(v, r, dots);
            stats.rows_quantized += len;
            let threshold = match kth_distance(state) {
                Some(tau) => {
                    if tau != cached_tau {
                        cached_tau = tau;
                        cached_threshold = cx.bounds.prune_threshold(tau, cx.err);
                    }
                    cached_threshold
                }
                None => f64::INFINITY, // not full: every row survives classification
            };
            shadow.classify_tile(qq, threshold, r, dots, &mut keep[..len]);
            for (j, (&kept, &id)) in keep[..len].iter().zip(ids).enumerate() {
                if !kept {
                    stats.rows_pruned += 1;
                    continue;
                }
                let global = cx.offset + id;
                if global == cx.skip {
                    continue;
                }
                state.offer(kernel.pair_with(cx.q, cx.qv, data, r + j), global);
                stats.rows_scanned += 1;
            }
        }
    }
}
