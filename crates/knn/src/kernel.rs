//! The metric-kernel layer: the *single* place metric expressions live, and
//! the tile-blocked compute path every distance consumer routes through.
//!
//! ## What moved here
//!
//! Before this layer existed, the squared-Euclidean / Euclidean / cosine
//! expressions were copy-pasted between [`Metric::distance`], the engine's
//! two scan loops, and the pruned cluster index, and cosine consumers threaded
//! `Option<&[f32]>` norm slices through every call (with `expect` panics
//! when a caller forgot). Now:
//!
//! * [`MetricKernel`] owns the per-row norm caches of both sides of a scan
//!   (query rows and training rows) and is the only code that knows what a
//!   metric's distance expression looks like. Binding a side computes its
//!   cache; no metric can ever observe a missing norm.
//! * The hot path is [`MetricKernel::tile_with`]: one query against a tile
//!   of consecutive training rows. Dot products come from the
//!   register-blocked [`snoopy_linalg::kernel`] microkernel, distances from
//!   the norm trick `‖q − x‖² = ‖q‖² + ‖x‖² − 2⟨q, x⟩` (clamped at zero)
//!   with both norms read from the caches — two flops per element instead
//!   of three, and a vectorisable inner loop instead of a serial `acc`
//!   chain. Cosine consumes the very same dot tile with cached `‖·‖` norms.
//! * [`pair_distance`] is the scalar reference: it computes norms and dot
//!   with the same fixed-order lane kernel, so it is **bit-identical** to
//!   the tiled path on every pair. [`Metric::distance`] delegates here,
//!   which is what keeps the engine's serial references and the tiled scans
//!   exactly equal.
//!
//! ## Determinism contract
//!
//! A distance depends only on the two rows (and the metric) — never on tile
//! size, block size, pool worker count, batch boundaries, or which consumer
//! computed it. The fixed-order accumulation is the contract's foundation;
//! note that it is a *different* floating-point value than the pre-kernel
//! naive summation, so golden values pinned before this layer were re-pinned
//! against [`pair_distance`].

use crate::metric::Metric;
use snoopy_linalg::kernel as simd;
use snoopy_linalg::DatasetView;

/// Squared Euclidean distance from cached squared norms and a dot product —
/// the norm-trick expression, clamped at zero because cancellation can push
/// the floating-point result slightly negative.
#[inline]
fn squared_from_dot(nq2: f32, nx2: f32, dot: f32) -> f32 {
    ((nq2 + nx2) - 2.0 * dot).max(0.0)
}

/// Cosine dissimilarity from cached Euclidean norms and a dot product. Zero
/// vectors are maximally dissimilar (2) to everything except other zero
/// vectors (0), mirroring the crate's historical convention.
#[inline]
fn cosine_from_dot(nq: f32, nx: f32, dot: f32) -> f32 {
    if nq == 0.0 && nx == 0.0 {
        0.0
    } else if nq == 0.0 || nx == 0.0 {
        2.0
    } else {
        1.0 - (dot / (nq * nx)).clamp(-1.0, 1.0)
    }
}

/// The cached per-row scalar a metric needs: squared norm for the Euclidean
/// family (the norm trick), Euclidean norm for cosine.
#[inline]
fn side_value(metric: Metric, row: &[f32]) -> f32 {
    match metric {
        Metric::SquaredEuclidean | Metric::Euclidean => simd::norm_sq(row),
        Metric::Cosine => simd::norm_sq(row).sqrt(),
    }
}

/// Scalar one-pair reference distance — same lane-ordered dot and norms as
/// the tiled path, hence bit-identical to it. This is the expression
/// [`Metric::distance`] evaluates.
#[inline]
pub fn pair_distance(metric: Metric, a: &[f32], b: &[f32]) -> f32 {
    let dot = simd::dot(a, b);
    match metric {
        Metric::SquaredEuclidean => squared_from_dot(simd::norm_sq(a), simd::norm_sq(b), dot),
        Metric::Euclidean => squared_from_dot(simd::norm_sq(a), simd::norm_sq(b), dot).sqrt(),
        Metric::Cosine => cosine_from_dot(simd::norm_sq(a).sqrt(), simd::norm_sq(b).sqrt(), dot),
    }
}

/// A metric plus the norm caches of the two sides of a distance scan.
///
/// Bind the training side once per dataset/batch ([`MetricKernel::bind_train`])
/// and the query side once per query set ([`MetricKernel::bind_queries`]);
/// every engine fold then asserts the cache lengths against the views it is
/// given, so a stale cache is a loud shape error instead of a silent wrong
/// answer. Long-lived consumers keep their kernel across calls (the
/// incremental top-k state re-binds only the train side per appended batch;
/// GHP's Prim loop binds its out-of-tree frontier as the train side and
/// mirrors the frontier's compaction into that cache via
/// [`MetricKernel::train_swap_remove`]).
#[derive(Debug, Clone)]
pub struct MetricKernel {
    metric: Metric,
    /// Per bound query row: `‖q‖²` (Euclidean family) or `‖q‖` (cosine).
    query_cache: Vec<f32>,
    /// Per bound training row: `‖x‖²` (Euclidean family) or `‖x‖` (cosine).
    train_cache: Vec<f32>,
}

impl MetricKernel {
    /// An unbound kernel for `metric` (bind both sides before scanning).
    pub fn new(metric: Metric) -> Self {
        Self { metric, query_cache: Vec::new(), train_cache: Vec::new() }
    }

    /// Convenience: a kernel with both sides bound.
    pub fn bound(metric: Metric, queries: DatasetView<'_>, train: DatasetView<'_>) -> Self {
        let mut k = Self::new(metric);
        k.bind_queries(queries);
        k.bind_train(train);
        k
    }

    /// The metric whose expressions this kernel evaluates.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    fn fill(metric: Metric, view: DatasetView<'_>, cache: &mut Vec<f32>) {
        cache.clear();
        cache.extend(view.rows_iter().map(|row| side_value(metric, row)));
    }

    /// (Re)binds the query side: computes one cached scalar per query row.
    pub fn bind_queries(&mut self, queries: DatasetView<'_>) {
        Self::fill(self.metric, queries, &mut self.query_cache);
    }

    /// (Re)binds the training side: computes one cached scalar per train row.
    pub fn bind_train(&mut self, train: DatasetView<'_>) {
        Self::fill(self.metric, train, &mut self.train_cache);
    }

    /// Number of query rows currently bound.
    #[inline]
    pub fn queries_bound(&self) -> usize {
        self.query_cache.len()
    }

    /// Number of training rows currently bound.
    #[inline]
    pub fn train_bound(&self) -> usize {
        self.train_cache.len()
    }

    /// Mirrors a swap-remove compaction of the bound training rows: the last
    /// row's cached value moves into slot `pos` and the cache shrinks by
    /// one — O(1), used by consumers whose training side shrinks in place
    /// (the MST frontier) instead of re-binding `O(n·d)` every round.
    pub fn train_swap_remove(&mut self, pos: usize) {
        self.train_cache.swap_remove(pos);
    }

    /// The cached value of bound query `i`.
    #[inline]
    pub fn query_cached(&self, i: usize) -> f32 {
        self.query_cache[i]
    }

    /// Computes the query-side scalar for an unbound query row — the same
    /// function that fills the caches, so mixing cached and on-the-fly
    /// values cannot change any distance bit.
    #[inline]
    pub fn query_value(&self, q: &[f32]) -> f32 {
        side_value(self.metric, q)
    }

    /// Distance tile: fills `out[j]` with the distance between query `q`
    /// (whose cached scalar is `qv`) and bound training row `t0 + j`, for
    /// `j in 0..out.len()`. Dots come from the register-blocked microkernel;
    /// every entry is bit-identical to [`pair_distance`] on the same pair.
    ///
    /// # Panics
    /// Panics if the tile range exceeds the bound train cache or the rows of
    /// `train` (which must be the view the train side was bound to).
    pub fn tile_with(&self, q: &[f32], qv: f32, train: DatasetView<'_>, t0: usize, out: &mut [f32]) {
        simd::dot_row_tile(q, train.data(), train.cols(), t0, out);
        let tc = &self.train_cache[t0..t0 + out.len()];
        match self.metric {
            Metric::SquaredEuclidean => {
                for (o, &tv) in out.iter_mut().zip(tc) {
                    *o = squared_from_dot(qv, tv, *o);
                }
            }
            Metric::Euclidean => {
                for (o, &tv) in out.iter_mut().zip(tc) {
                    *o = squared_from_dot(qv, tv, *o).sqrt();
                }
            }
            Metric::Cosine => {
                for (o, &tv) in out.iter_mut().zip(tc) {
                    *o = cosine_from_dot(qv, tv, *o);
                }
            }
        }
    }

    /// Two-query distance tile through the 2 × 4 register block — the
    /// engine's hot configuration (every loaded row chunk is reused by both
    /// queries). Bit-identical to two [`MetricKernel::tile_with`] calls on
    /// the same pairs.
    ///
    /// # Panics
    /// Panics if the buffers disagree in length or the tile range exceeds
    /// the bound train cache.
    #[allow(clippy::too_many_arguments)] // two queries' full tile context
    pub fn tile2_with(
        &self,
        qa: &[f32],
        qva: f32,
        qb: &[f32],
        qvb: f32,
        train: DatasetView<'_>,
        t0: usize,
        out_a: &mut [f32],
        out_b: &mut [f32],
    ) {
        simd::dot_row_tile2(qa, qb, train.data(), train.cols(), t0, out_a, out_b);
        let tc = &self.train_cache[t0..t0 + out_a.len()];
        match self.metric {
            Metric::SquaredEuclidean => {
                for ((oa, ob), &tv) in out_a.iter_mut().zip(out_b.iter_mut()).zip(tc) {
                    *oa = squared_from_dot(qva, tv, *oa);
                    *ob = squared_from_dot(qvb, tv, *ob);
                }
            }
            Metric::Euclidean => {
                for ((oa, ob), &tv) in out_a.iter_mut().zip(out_b.iter_mut()).zip(tc) {
                    *oa = squared_from_dot(qva, tv, *oa).sqrt();
                    *ob = squared_from_dot(qvb, tv, *ob).sqrt();
                }
            }
            Metric::Cosine => {
                for ((oa, ob), &tv) in out_a.iter_mut().zip(out_b.iter_mut()).zip(tc) {
                    *oa = cosine_from_dot(qva, tv, *oa);
                    *ob = cosine_from_dot(qvb, tv, *ob);
                }
            }
        }
    }

    /// Single-pair path against bound training row `t` (the tile's scalar
    /// sibling — same bits). Used where a consumer must interleave distance
    /// evaluations with per-row control flow (the pruned index's per-row
    /// bound checks).
    #[inline]
    pub fn pair_with(&self, q: &[f32], qv: f32, train: DatasetView<'_>, t: usize) -> f32 {
        let dot = simd::dot(q, train.row(t));
        let tv = self.train_cache[t];
        match self.metric {
            Metric::SquaredEuclidean => squared_from_dot(qv, tv, dot),
            Metric::Euclidean => squared_from_dot(qv, tv, dot).sqrt(),
            Metric::Cosine => cosine_from_dot(qv, tv, dot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_linalg::Matrix;

    fn wavy(n: usize, d: usize, phase: f32) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * d + c) as f32 * 0.43 + phase).sin() * 2.5)
    }

    #[test]
    fn tile_is_bit_identical_to_pair_distance_for_every_metric_and_ragged_shape() {
        for d in [1usize, 5, 8, 13, 16, 27] {
            let train = wavy(11, d, 0.0);
            let queries = wavy(3, d, 1.2);
            for metric in Metric::all() {
                let kernel = MetricKernel::bound(metric, queries.view(), train.view());
                for qi in 0..queries.rows() {
                    let q = queries.row(qi);
                    let qv = kernel.query_cached(qi);
                    assert_eq!(qv.to_bits(), kernel.query_value(q).to_bits());
                    for t0 in [0usize, 1, 7] {
                        let len = train.rows() - t0;
                        let mut out = vec![0.0f32; len];
                        kernel.tile_with(q, qv, train.view(), t0, &mut out);
                        for (j, &got) in out.iter().enumerate() {
                            let reference = pair_distance(metric, q, train.row(t0 + j));
                            assert_eq!(got.to_bits(), reference.to_bits(), "{} d {d}", metric.name());
                            let single = kernel.pair_with(q, qv, train.view(), t0 + j);
                            assert_eq!(single.to_bits(), reference.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pair_distance_identity_symmetry_and_clamp() {
        let m = wavy(2, 19, 0.4);
        for metric in Metric::all() {
            assert_eq!(pair_distance(metric, m.row(0), m.row(0)), 0.0, "{} identity", metric.name());
            assert_eq!(
                pair_distance(metric, m.row(0), m.row(1)).to_bits(),
                pair_distance(metric, m.row(1), m.row(0)).to_bits(),
                "{} symmetry",
                metric.name()
            );
            assert!(pair_distance(metric, m.row(0), m.row(1)) >= 0.0, "{} non-negative", metric.name());
        }
        // Near-duplicate large-norm rows: the norm trick cancels; the clamp
        // must keep the squared distance non-negative.
        let a = vec![1000.0f32; 8];
        let mut b = a.clone();
        b[0] += 1e-4;
        assert!(pair_distance(Metric::SquaredEuclidean, &a, &b) >= 0.0);
        assert!(!pair_distance(Metric::Euclidean, &a, &b).is_nan());
    }

    #[test]
    fn cosine_zero_vector_convention_survives_the_cache() {
        let z = Matrix::zeros(1, 4);
        let a = wavy(1, 4, 0.9);
        let kernel = MetricKernel::bound(Metric::Cosine, z.view(), a.view());
        let mut out = [0.0f32];
        kernel.tile_with(z.row(0), kernel.query_cached(0), a.view(), 0, &mut out);
        assert_eq!(out[0], 2.0);
        let kernel_zz = MetricKernel::bound(Metric::Cosine, z.view(), z.view());
        kernel_zz.tile_with(z.row(0), kernel_zz.query_cached(0), z.view(), 0, &mut out);
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn swap_remove_mirrors_vec_semantics() {
        let train = wavy(5, 6, 0.0);
        let mut kernel = MetricKernel::new(Metric::SquaredEuclidean);
        kernel.bind_train(train.view());
        kernel.train_swap_remove(1);
        assert_eq!(kernel.train_bound(), 4);
        // Slot 1 now holds row 4's cached value: distances against the
        // compacted rows equal those against the rows themselves.
        let compacted = Matrix::from_rows(&[0, 4, 2, 3].map(|r| train.row(r).to_vec()));
        let q = train.row(0);
        let mut out = [0.0f32; 4];
        kernel.tile_with(q, kernel.query_value(q), compacted.view(), 0, &mut out);
        for (j, &got) in out.iter().enumerate() {
            assert_eq!(got.to_bits(), pair_distance(Metric::SquaredEuclidean, q, compacted.row(j)).to_bits());
        }
    }
}
