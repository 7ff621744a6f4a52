//! Kernel-density-estimation plug-in BER estimator (Fukunaga & Hummels' KDE
//! family).
//!
//! Class-conditional densities are estimated with isotropic Gaussian kernels
//! (Scott's-rule bandwidth), the posterior is formed from the density
//! estimates and the empirical class priors, and the Bayes error is the
//! average of `1 − max_y p̂(y|x)` over the evaluation points. The per-class
//! kernel sums — the estimator's `O(train × eval)` hot loop — run through
//! the engine's one scan loop, the same blocked, chunk-parallel walk that
//! builds neighbour tables
//! ([`class_kernel_log_sums`](snoopy_knn::EvalEngine::class_kernel_log_sums)),
//! with an online log-sum-exp per (eval point, class) that adds each eval
//! point's training rows in ascending order. KDE suffers badly from the curse of
//! dimensionality — which is precisely why the paper (and FeeBee) find the
//! 1NN estimator over trained embeddings preferable — but it remains the
//! canonical density-estimation baseline.

use crate::{BerEstimator, LabeledView};
use snoopy_knn::EvalEngine;
use snoopy_linalg::stats;

/// KDE plug-in estimator.
#[derive(Debug, Clone)]
pub struct KdeEstimator {
    /// Multiplier applied to the Scott's-rule bandwidth.
    bandwidth_scale: f64,
}

impl Default for KdeEstimator {
    fn default() -> Self {
        Self { bandwidth_scale: 1.0 }
    }
}

impl KdeEstimator {
    /// Creates a KDE estimator with a custom bandwidth multiplier.
    pub fn new(bandwidth_scale: f64) -> Self {
        assert!(bandwidth_scale > 0.0, "bandwidth scale must be positive");
        Self { bandwidth_scale }
    }

    /// Scott's-rule bandwidth for `n` samples in `d` dimensions with average
    /// per-feature standard deviation `sigma`.
    pub fn scott_bandwidth(n: usize, d: usize, sigma: f64) -> f64 {
        let n = n.max(2) as f64;
        let d = d.max(1) as f64;
        (sigma.max(1e-6)) * n.powf(-1.0 / (d + 4.0))
    }
}

impl BerEstimator for KdeEstimator {
    fn name(&self) -> &'static str {
        "kde-plugin"
    }

    fn estimate(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>, num_classes: usize) -> f64 {
        if train.is_empty() || eval.is_empty() {
            return 1.0 - 1.0 / num_classes as f64;
        }
        let d = train.dim();
        let sigma = stats::mean(&train.features().column_stds());
        let h = Self::scott_bandwidth(train.len(), d, sigma) * self.bandwidth_scale;
        let inv_two_h2 = 1.0 / (2.0 * h * h);

        // Per-class sample counts and priors.
        let mut class_counts = vec![0usize; num_classes];
        for &y in train.labels() {
            class_counts[y as usize] += 1;
        }
        let priors: Vec<f64> = class_counts.iter().map(|&c| c as f64 / train.len() as f64).collect();

        // All pairwise kernel work in one blocked, chunk-parallel engine
        // pass: log Σ_j exp(−‖x − x_j‖² / 2h²) per (eval point, class).
        let kernel_sums = EvalEngine::default().class_kernel_log_sums(
            eval.features(),
            train.features(),
            train.labels(),
            num_classes,
            inv_two_h2,
        );

        let mut acc = 0.0f64;
        let mut log_post = vec![f64::NEG_INFINITY; num_classes];
        for sums in kernel_sums.chunks_exact(num_classes) {
            // Log of class-conditional density (up to a shared constant),
            // then the posterior via softmax against the class priors.
            for (c, post) in log_post.iter_mut().enumerate() {
                *post = if class_counts[c] == 0 {
                    f64::NEG_INFINITY
                } else {
                    priors[c].max(1e-12).ln() + sums[c] - (class_counts[c] as f64).ln()
                };
            }
            stats::softmax_inplace(&mut log_post);
            let max_post = log_post.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            acc += 1.0 - max_post;
        }
        (acc / eval.len() as f64).clamp(0.0, 1.0)
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
    fn scott_bandwidth_shrinks_with_n() {
        let h_small = KdeEstimator::scott_bandwidth(100, 2, 1.0);
        let h_large = KdeEstimator::scott_bandwidth(10_000, 2, 1.0);
        assert!(h_large < h_small);
        assert!(h_large > 0.0);
    }

    #[test]
    fn estimate_tracks_known_bayes_error_in_low_dim() {
        let mu = 2.0;
        let true_ber = stats::normal_cdf(-mu / 2.0);
        let (tx, ty) = gaussian_pair(1500, mu, 1);
        let (qx, qy) = gaussian_pair(400, mu, 2);
        let est = KdeEstimator::default();
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!((value - true_ber).abs() < 0.08, "estimate {value}, true {true_ber}");
    }

    #[test]
    fn separable_task_gives_near_zero() {
        let (tx, ty) = gaussian_pair(600, 12.0, 3);
        let (qx, qy) = gaussian_pair(200, 12.0, 4);
        let value =
            KdeEstimator::default().estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 2);
        assert!(value < 0.02, "estimate {value}");
    }

    #[test]
    fn missing_class_in_training_is_handled() {
        // Training data only contains class 0; estimator should stay finite
        // and report a value bounded by 1.
        let (tx, _) = gaussian_pair(100, 1.0, 5);
        let ty = vec![0u32; 100];
        let (qx, qy) = gaussian_pair(50, 1.0, 6);
        let value =
            KdeEstimator::default().estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 3);
        assert!((0.0..=1.0).contains(&value));
    }

    #[test]
    #[should_panic(expected = "bandwidth scale must be positive")]
    fn rejects_bad_bandwidth() {
        let _ = KdeEstimator::new(0.0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(KdeEstimator::default().name(), "kde-plugin");
    }
}
