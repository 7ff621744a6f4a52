//! Generalised Henze–Penrose (GHP) divergence estimator via the Euclidean
//! minimum spanning tree.
//!
//! Friedman & Rafsky's multivariate run statistic counts the edges of the
//! Euclidean MST over the pooled sample whose endpoints carry different
//! labels. As `n → ∞` the normalised cross-count converges to
//! `2 Σ_{i<j} ∫ p_i p_j f_i f_j / f` — the pairwise Henze–Penrose affinity —
//! and since `min(a, b) ≥ ab/(a+b) ≥ min(a, b)/2` the statistic sandwiches the
//! Bayes error:
//!
//! ```text
//! R_cross / (2n)  ≤  BER-estimate  ≤  R_cross / n
//! ```
//!
//! Following Sekeh, Oselio & Hero (2020) the multiclass case sums the
//! pairwise contributions, which the global MST cross-count does implicitly.
//! The estimator reports the lower end of the sandwich, making it directly
//! comparable with the other lower-bound-style estimators in this crate.
//!
//! The MST comes from Prim's algorithm run directly on the metric kernel of
//! `snoopy-knn`, not through the evaluation engine: each round is one
//! distance tile of the newest tree vertex against the out-of-tree frontier,
//! fused with the pick of the next vertex. A round is at most one
//! `max_points`-row tile (2,000 by default), too little work to split
//! across the pool, so the loop runs on the calling thread.

use crate::{BerEstimator, LabeledView};
use snoopy_knn::{Metric, MetricKernel, NearestHit};
use snoopy_linalg::{DatasetView, Matrix};

/// GHP/MST-based BER estimator.
#[derive(Debug, Clone)]
pub struct GhpEstimator {
    /// Maximum number of pooled points used to build the MST; larger samples
    /// are subsampled deterministically (every `ceil(n/max)`‑th point) to keep
    /// the `O(n²)` Prim construction tractable.
    max_points: usize,
}

impl Default for GhpEstimator {
    fn default() -> Self {
        Self { max_points: 2_000 }
    }
}

impl GhpEstimator {
    /// Creates an estimator with a custom pooled-sample cap.
    pub fn new(max_points: usize) -> Self {
        Self { max_points: max_points.max(8) }
    }

    /// Counts cross-label edges in the Euclidean MST of the pooled sample and
    /// returns `(cross_edges, total_points)`.
    ///
    /// Prim's algorithm over a row-contiguous out-of-tree frontier
    /// (swap-remove compaction), bound as the train side of one
    /// [`MetricKernel`]: each round is a single
    /// [`tile_with`](MetricKernel::tile_with) call of the newest tree vertex
    /// against the whole frontier — the same `~n²/2` distance evaluations as
    /// the textbook serial loop — fused with the pick of the next vertex.
    /// A frontier point's `(best distance, parent)` pair is replaced only on
    /// a strictly smaller `(distance, parent index)` ([`NearestHit::beats`]),
    /// and the pick breaks distance ties on the lowest global index, so the
    /// tree (and the cross count) does not depend on the compaction order.
    pub fn cross_edge_count(features: &Matrix, labels: &[u32]) -> (usize, usize) {
        let n = labels.len();
        if n < 2 {
            return (0, n);
        }
        let d = features.cols();
        let view = features.view();

        // Contiguous out-of-tree frontier: row `p` of `frontier` is point
        // `ids[p]`, and `best[p]` its (distance-to-tree, parent) pair.
        let mut frontier: Vec<f32> = Vec::with_capacity((n - 1) * d);
        for j in 1..n {
            frontier.extend_from_slice(view.row(j));
        }
        let mut ids: Vec<usize> = (1..n).collect();
        let mut best = vec![NearestHit::NONE; n - 1];
        let mut dist = vec![0.0f32; n - 1];
        let mut m = n - 1;

        // The frontier's train-side norm cache is computed once and then
        // mirrors the swap-remove compaction (O(1) per round instead of an
        // O(m·d) re-bind).
        let mut kernel = MetricKernel::new(Metric::SquaredEuclidean);
        kernel.bind_train(DatasetView::from_raw(&frontier, m, d));
        let mut next = 0usize;
        let mut cross = 0usize;
        while m > 0 {
            // Relax the frontier through the newest tree vertex and pick the
            // closest frontier vertex in the same pass; distance ties
            // resolve to the lowest global index.
            let q = view.row(next);
            kernel.tile_with(
                q,
                kernel.query_value(q),
                DatasetView::from_raw(&frontier, m, d),
                0,
                &mut dist[..m],
            );
            let mut pos = usize::MAX;
            for p in 0..m {
                if NearestHit::beats(dist[p], next, best[p]) {
                    best[p] = NearestHit { distance: dist[p], index: next };
                }
                if best[p].distance < f32::INFINITY
                    && (pos == usize::MAX
                        || best[p].distance < best[pos].distance
                        || (best[p].distance == best[pos].distance && ids[p] < ids[pos]))
                {
                    pos = p;
                }
            }
            if pos == usize::MAX {
                break;
            }
            next = ids[pos];
            if labels[next] != labels[best[pos].index] {
                cross += 1;
            }
            // Swap-remove the new tree vertex from the frontier; the
            // kernel's train cache compacts in lockstep.
            m -= 1;
            ids.swap_remove(pos);
            best.swap_remove(pos);
            if pos != m {
                let (head, tail) = frontier.split_at_mut(m * d);
                head[pos * d..(pos + 1) * d].copy_from_slice(&tail[..d]);
            }
            frontier.truncate(m * d);
            kernel.train_swap_remove(pos);
        }
        (cross, n)
    }

    fn pooled(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>) -> (Matrix, Vec<u32>) {
        // Pooling two disjoint samples is the one genuinely materialising
        // operation in this estimator: the MST needs a contiguous buffer.
        let pooled_features = train.features().vstack(&eval.features());
        let mut pooled_labels = train.labels().to_vec();
        pooled_labels.extend_from_slice(eval.labels());
        let n = pooled_labels.len();
        if n <= self.max_points {
            return (pooled_features, pooled_labels);
        }
        let stride = n.div_ceil(self.max_points);
        let keep: Vec<usize> = (0..n).step_by(stride).collect();
        (pooled_features.select_rows(&keep), keep.iter().map(|&i| pooled_labels[i]).collect())
    }
}

impl BerEstimator for GhpEstimator {
    fn name(&self) -> &'static str {
        "ghp-mst"
    }

    fn estimate(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>, num_classes: usize) -> f64 {
        let (features, labels) = self.pooled(train, eval);
        if labels.len() < 2 {
            return 1.0 - 1.0 / num_classes as f64;
        }
        let (cross, n) = Self::cross_edge_count(&features, &labels);
        (cross as f64 / (2.0 * n as f64)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use snoopy_linalg::{rng, Matrix};

    fn gaussian_pair(n: usize, mu: f64, seed: u64) -> (Matrix, Vec<u32>) {
        let mut r = rng::seeded(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.gen_range(0..2u32);
            let center = if c == 0 { -mu / 2.0 } else { mu / 2.0 };
            rows.push(vec![rng::normal_with(&mut r, center, 1.0) as f32, rng::normal(&mut r) as f32]);
            labels.push(c);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn mst_cross_count_on_tiny_example() {
        // Two tight clusters: the MST has exactly one cross edge.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.2, 0.0],
            vec![10.0, 0.0],
            vec![10.1, 0.0],
        ]);
        let y = vec![0, 0, 0, 1, 1];
        let (cross, n) = GhpEstimator::cross_edge_count(&x, &y);
        assert_eq!(n, 5);
        assert_eq!(cross, 1);
    }

    #[test]
    fn separable_clusters_give_near_zero_estimate() {
        let (x0, _) = gaussian_pair(200, 0.0, 1);
        // Shift class-1 points far away to make the task separable.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..x0.rows() {
            let c = (i % 2) as u32;
            let shift = if c == 0 { 0.0 } else { 50.0 };
            rows.push(vec![x0.get(i, 0) + shift, x0.get(i, 1)]);
            labels.push(c);
        }
        let x = Matrix::from_rows(&rows);
        let est = GhpEstimator::default();
        let half = x.rows() / 2;
        let value = est.estimate(
            &LabeledView::new(&x.slice_rows(0, half), &labels[..half]),
            &LabeledView::new(&x.slice_rows(half, x.rows()), &labels[half..]),
            2,
        );
        assert!(value < 0.02, "estimate {value}");
    }

    #[test]
    fn estimate_grows_with_overlap_and_stays_below_half() {
        let est = GhpEstimator::default();
        let mut last = -1.0f64;
        for (seed, mu) in [(10u64, 4.0f64), (11, 2.0), (12, 0.5)] {
            let (tx, ty) = gaussian_pair(500, mu, seed);
            let (qx, qy) = gaussian_pair(200, mu, seed + 100);
            let v = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
            assert!(v >= last - 0.03, "estimate should grow with overlap: {v} after {last}");
            assert!(v <= 0.55);
            last = v;
        }
        assert!(last > 0.2, "heavily overlapping classes should give a large estimate, got {last}");
    }

    #[test]
    fn estimate_is_roughly_a_lower_bound_of_known_ber() {
        let mu = 1.5;
        let true_ber = snoopy_linalg::stats::normal_cdf(-mu / 2.0);
        let (tx, ty) = gaussian_pair(1200, mu, 21);
        let (qx, qy) = gaussian_pair(400, mu, 22);
        let value =
            GhpEstimator::default().estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!(
            value <= true_ber + 0.05,
            "GHP estimate {value} should not exceed true BER {true_ber} by much"
        );
        assert!(value > true_ber * 0.3, "GHP estimate {value} should not collapse to zero (true {true_ber})");
    }

    #[test]
    fn subsampling_keeps_estimator_usable() {
        let (tx, ty) = gaussian_pair(3000, 2.0, 31);
        let (qx, qy) = gaussian_pair(1000, 2.0, 32);
        let small = GhpEstimator::new(500);
        let value = small.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!((0.0..=0.5).contains(&value));
        assert_eq!(small.name(), "ghp-mst");
    }

    #[test]
    fn degenerate_inputs() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0]]);
        let y = vec![0u32];
        let (cross, n) = GhpEstimator::cross_edge_count(&x, &y);
        assert_eq!((cross, n), (0, 1));
    }
}
