//! Devijver-style kNN posterior plug-in estimator ("1NN-kNN" / DE-kNN family).
//!
//! Devijver's multiclass kNN approach to Bayes-risk estimation approximates
//! the posterior at an evaluation point by the class frequencies among its
//! `k` nearest training neighbours and plugs that into the Bayes-risk
//! expression `E[1 − max_y p(y|x)]`. With `k → ∞`, `k/n → 0` this converges
//! to the true BER; with finite `k` it is a biased but useful baseline the
//! paper compares against.

use crate::{BerEstimator, LabeledView};
use snoopy_knn::{EvalEngine, Metric, NeighborTable};

/// kNN posterior plug-in estimator.
#[derive(Debug, Clone)]
pub struct KnnPosteriorEstimator {
    k: usize,
    metric: Metric,
}

impl KnnPosteriorEstimator {
    /// Creates an estimator using `k` neighbours and squared-Euclidean
    /// distance.
    pub fn new(k: usize) -> Self {
        Self { k: k.max(1), metric: Metric::SquaredEuclidean }
    }

    /// Creates an estimator with an explicit metric.
    pub fn with_metric(k: usize, metric: Metric) -> Self {
        Self { k: k.max(1), metric }
    }

    /// The number of neighbours consulted.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The plug-in Bayes-risk average `E[1 − max_y p̂(y|x)]` read off a
    /// neighbour table: the posterior at each eval point is the class
    /// frequency among the first `min(k, table.k())` stored neighbours.
    fn posterior_risk(&self, table: &NeighborTable, train_labels: &[u32], num_classes: usize) -> f64 {
        let k = self.k.min(table.k()).max(1);
        let mut counts = vec![0usize; num_classes];
        let mut acc = 0.0f64;
        for q in 0..table.num_queries() {
            counts.iter_mut().for_each(|c| *c = 0);
            let neighbors = table.neighbors_k(q, k);
            for hit in neighbors {
                counts[train_labels[hit.index] as usize] += 1;
            }
            let max_frac = counts.iter().copied().max().unwrap_or(0) as f64 / neighbors.len() as f64;
            acc += 1.0 - max_frac;
        }
        acc / table.num_queries() as f64
    }
}

impl BerEstimator for KnnPosteriorEstimator {
    fn name(&self) -> &'static str {
        "knn-posterior"
    }

    fn estimate(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>, num_classes: usize) -> f64 {
        if train.is_empty() || eval.is_empty() {
            return 1.0 - 1.0 / num_classes as f64;
        }
        let table = EvalEngine::default().topk(
            train.features(),
            eval.features(),
            self.metric,
            self.k.min(train.len()),
        );
        self.posterior_risk(&table, train.labels(), num_classes)
    }

    fn table_k(&self) -> usize {
        // Only the exact shared metric may read the table: Euclidean ranks
        // like squared Euclidean in real arithmetic, but f32 sqrt can
        // collapse two distinct squared distances into an exact tie and
        // flip the lowest-index tie-break, breaking the documented
        // estimate == estimate_with_table parity.
        match self.metric {
            Metric::SquaredEuclidean => self.k,
            Metric::Euclidean | Metric::Cosine => 0,
        }
    }

    fn estimate_with_table(
        &self,
        table: &NeighborTable,
        train: &LabeledView<'_>,
        eval: &LabeledView<'_>,
        num_classes: usize,
    ) -> f64 {
        if train.is_empty() || eval.is_empty() {
            return 1.0 - 1.0 / num_classes as f64;
        }
        self.posterior_risk(table, train.labels(), num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use snoopy_linalg::{rng, Matrix};

    /// Binary task with a tunable overlap so the true BER is known
    /// analytically: two unit-variance Gaussians at ±mu/2 in 1-D (embedded in
    /// 2-D), BER = Φ(−mu/2).
    fn gaussian_pair(n: usize, mu: f64, seed: u64) -> (Matrix, Vec<u32>) {
        let mut r = rng::seeded(seed);
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.gen_range(0..2u32);
            let center = if c == 0 { -mu / 2.0 } else { mu / 2.0 };
            rows.push(vec![rng::normal_with(&mut r, center, 1.0) as f32, rng::normal(&mut r) as f32 * 0.01]);
            labels.push(c);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn estimate_tracks_known_bayes_error() {
        let mu = 2.0;
        let true_ber = snoopy_linalg::stats::normal_cdf(-mu / 2.0); // ≈ 0.1587
        let (tx, ty) = gaussian_pair(2500, mu, 1);
        let (qx, qy) = gaussian_pair(600, mu, 2);
        let est = KnnPosteriorEstimator::new(25);
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!((value - true_ber).abs() < 0.06, "estimate {value}, true {true_ber}");
    }

    #[test]
    fn separable_task_gives_near_zero() {
        let (tx, ty) = gaussian_pair(800, 10.0, 3);
        let (qx, qy) = gaussian_pair(200, 10.0, 4);
        let est = KnnPosteriorEstimator::new(15);
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!(value < 0.02, "estimate {value}");
    }

    #[test]
    fn k_is_clamped_to_training_size() {
        let (tx, ty) = gaussian_pair(10, 3.0, 5);
        let (qx, qy) = gaussian_pair(5, 3.0, 6);
        let est = KnnPosteriorEstimator::new(500);
        // Must not panic; with k = n the posterior estimate equals the class
        // priors, so the value is close to 1 - max prior (≈ 0.5 here).
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!((0.0..=0.6).contains(&value));
        assert_eq!(est.k(), 500);
    }

    #[test]
    fn empty_train_returns_chance_level() {
        let empty = Matrix::zeros(0, 2);
        let no_labels: Vec<u32> = vec![];
        let (qx, qy) = gaussian_pair(10, 2.0, 7);
        let est = KnnPosteriorEstimator::new(5);
        let value = est.estimate(&LabeledView::new(&empty, &no_labels), &LabeledView::new(&qx, &qy), 4);
        assert!((value - 0.75).abs() < 1e-12);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(KnnPosteriorEstimator::new(3).name(), "knn-posterior");
    }
}
