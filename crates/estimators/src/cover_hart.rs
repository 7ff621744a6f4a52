//! The Cover–Hart 1NN-based BER lower-bound estimator (Eq. 2 of the paper).
//!
//! Cover & Hart's classic result relates the infinite-sample 1NN error
//! `R_{∞,1}` to the Bayes error `R*` (Eq. 1):
//!
//! ```text
//! R_{∞,1} ≥ R* ≥ R_{∞,1} / (1 + sqrt(1 − C·R_{∞,1}/(C−1)))
//! ```
//!
//! Snoopy's practical estimator plugs the *finite-sample* 1NN error into the
//! right-hand side (Eq. 2), which FeeBee found to be on par with or better
//! than every other estimator family while being scalable and hyper-parameter
//! free.

use crate::{BerEstimator, LabeledView};
use snoopy_knn::{EvalEngine, Metric, NeighborTable};

/// Applies the Cover–Hart lower bound to a (finite-sample) 1NN error value.
///
/// Values of `one_nn_error` above the chance level `(C−1)/C` would make the
/// square-root argument negative; the argument is clamped at zero, which
/// collapses the bound to `error / 1 = error` — the correct limiting
/// behaviour for a completely uninformative classifier.
pub fn cover_hart_lower_bound(one_nn_error: f64, num_classes: usize) -> f64 {
    assert!(num_classes >= 2, "need at least two classes");
    let c = num_classes as f64;
    let err = one_nn_error.clamp(0.0, 1.0);
    let inner = (1.0 - c * err / (c - 1.0)).max(0.0);
    err / (1.0 + inner.sqrt())
}

/// The inverse direction: given a Bayes error, the asymptotic 1NN error lies
/// in `[R*, R*(2 − C·R*/(C−1))]`; this returns that upper end, which is useful
/// for sanity-checking estimator outputs on tasks with known BER.
pub fn one_nn_error_upper_bound(bayes_error: f64, num_classes: usize) -> f64 {
    let c = num_classes as f64;
    let b = bayes_error.clamp(0.0, 1.0);
    (b * (2.0 - c * b / (c - 1.0))).clamp(0.0, 1.0)
}

/// 1NN + Cover–Hart estimator over a fixed feature representation.
#[derive(Debug, Clone)]
pub struct OneNnEstimator {
    metric: Metric,
}

impl Default for OneNnEstimator {
    fn default() -> Self {
        Self { metric: Metric::SquaredEuclidean }
    }
}

impl OneNnEstimator {
    /// Creates an estimator with the given metric.
    pub fn new(metric: Metric) -> Self {
        Self { metric }
    }

    /// The raw (uncorrected) 1NN error of `train` evaluated on `eval`,
    /// computed by one parallel engine pass. Both views are consumed
    /// zero-copy.
    pub fn raw_one_nn_error(
        &self,
        train: &LabeledView<'_>,
        eval: &LabeledView<'_>,
        _num_classes: usize,
    ) -> f64 {
        if train.is_empty() || eval.is_empty() {
            return 1.0;
        }
        EvalEngine::default()
            .topk(train.features(), eval.features(), self.metric, 1)
            .one_nn_error(train.labels(), eval.labels())
    }
}

impl BerEstimator for OneNnEstimator {
    fn name(&self) -> &'static str {
        "1nn-cover-hart"
    }

    fn estimate(&self, train: &LabeledView<'_>, eval: &LabeledView<'_>, num_classes: usize) -> f64 {
        let err = self.raw_one_nn_error(train, eval, num_classes);
        cover_hart_lower_bound(err, num_classes)
    }

    fn table_k(&self) -> usize {
        // Only the exact shared metric may read the table: Euclidean ranks
        // like squared Euclidean in real arithmetic, but f32 sqrt can
        // collapse two distinct squared distances into an exact tie and
        // flip the lowest-index tie-break, breaking the documented
        // estimate == estimate_with_table parity.
        match self.metric {
            Metric::SquaredEuclidean => 1,
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
            return cover_hart_lower_bound(1.0, num_classes);
        }
        cover_hart_lower_bound(table.one_nn_error(train.labels(), eval.labels()), num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_linalg::Matrix;

    fn separated_task() -> (Matrix, Vec<u32>, Matrix, Vec<u32>) {
        let mut train_rows = Vec::new();
        let mut train_y = Vec::new();
        let mut test_rows = Vec::new();
        let mut test_y = Vec::new();
        for i in 0..60 {
            let c = i % 3;
            let base = c as f32 * 10.0;
            train_rows.push(vec![base + (i as f32 * 0.7).sin() * 0.2, base - (i as f32 * 0.3).cos() * 0.2]);
            train_y.push(c as u32);
            test_rows.push(vec![base + (i as f32 * 1.3).sin() * 0.2, base + (i as f32 * 0.9).cos() * 0.2]);
            test_y.push(c as u32);
        }
        (Matrix::from_rows(&train_rows), train_y, Matrix::from_rows(&test_rows), test_y)
    }

    #[test]
    fn bound_is_below_error_and_nonnegative() {
        for c in [2usize, 5, 10, 100] {
            for err in [0.0, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0] {
                let b = cover_hart_lower_bound(err, c);
                assert!(b >= 0.0, "C={c}, err={err}");
                assert!(b <= err + 1e-12, "bound must not exceed the 1NN error");
            }
        }
    }

    #[test]
    fn bound_known_values() {
        // Binary case: err/(1 + sqrt(1 - 2 err)).
        let b = cover_hart_lower_bound(0.2, 2);
        assert!((b - 0.2 / (1.0 + (1.0f64 - 0.4).sqrt())).abs() < 1e-12);
        // Zero error maps to zero, chance-level error maps to itself.
        assert_eq!(cover_hart_lower_bound(0.0, 10), 0.0);
        let chance = 0.9;
        assert!((cover_hart_lower_bound(chance, 10) - chance).abs() < 1e-12);
    }

    #[test]
    fn bound_is_monotone_in_error() {
        let mut prev = 0.0;
        for i in 0..=50 {
            let err = i as f64 / 50.0 * 0.89;
            let b = cover_hart_lower_bound(err, 10);
            assert!(b + 1e-12 >= prev, "bound must be monotone");
            prev = b;
        }
    }

    #[test]
    fn one_nn_upper_bound_brackets() {
        for c in [2usize, 10] {
            for ber in [0.0, 0.05, 0.2, 0.4] {
                let upper = one_nn_error_upper_bound(ber, c);
                assert!(upper >= ber);
                // Round-tripping through the lower bound recovers at most the BER.
                assert!(cover_hart_lower_bound(upper, c) <= ber + 1e-9);
            }
        }
    }

    #[test]
    fn estimator_on_separable_task_is_near_zero() {
        let (tx, ty, qx, qy) = separated_task();
        let est = OneNnEstimator::default();
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 3);
        assert!(value < 0.01, "estimate {value}");
        assert_eq!(est.name(), "1nn-cover-hart");
    }

    #[test]
    fn estimator_detects_label_noise() {
        let (tx, mut ty, qx, mut qy) = separated_task();
        // Flip a quarter of the labels (a stride co-prime with the class
        // pattern, so this is genuine noise rather than a class renaming):
        // the estimate should rise well above zero.
        for i in (0..ty.len()).step_by(4) {
            ty[i] = (ty[i] + 1) % 3;
        }
        for i in (0..qy.len()).step_by(5) {
            qy[i] = (qy[i] + 2) % 3;
        }
        let est = OneNnEstimator::default();
        let value = est.estimate(&LabeledView::new(&tx, &ty), &LabeledView::new(&qx, &qy), 3);
        assert!(value > 0.1, "estimate {value}");
    }

    #[test]
    fn empty_inputs_give_pessimistic_estimate() {
        let (tx, ty, _, _) = separated_task();
        let est = OneNnEstimator::default();
        let empty_features = Matrix::zeros(0, 2);
        let empty_labels: Vec<u32> = vec![];
        let view = LabeledView::new(&empty_features, &empty_labels);
        let value = est.raw_one_nn_error(&LabeledView::new(&tx, &ty), &view, 3);
        assert_eq!(value, 1.0);
    }
}
