//! Cross-estimator integration and property tests: every estimator must track
//! the known BER of synthetic tasks and respect the Lemma 2.1 noise
//! evolution at least qualitatively (the FeeBee evaluation protocol).

use proptest::prelude::*;
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::noise::{ber_after_uniform_noise, TransitionMatrix};
use snoopy_estimators::{
    cover_hart_lower_bound, default_estimators, estimate_all, estimate_all_with_state,
    estimate_all_with_table, shared_neighbor_table, shared_table_k, BerEstimator, GhpEstimator,
    IncrementalTopK, KnnPosteriorEstimator, LabeledView, Metric, OneNnEstimator,
};
use snoopy_linalg::{rng, Matrix};
// Shared fixtures: the Gaussian-mixture task with a Monte-Carlo true BER,
// and a point cloud whose duplicated rows make distance ties.
use snoopy_testutil::{cloud_with_ties, gaussian_task as make_task};

#[test]
fn all_estimators_are_close_on_a_moderate_task() {
    let task = make_task(4, 2.2, 7, 1500, 400);
    let train = LabeledView::new(&task.train_x, &task.train_y);
    let test = LabeledView::new(&task.test_x, &task.test_y);
    for est in default_estimators() {
        let value = est.estimate(&train, &test, task.num_classes);
        assert!(
            (value - task.true_ber).abs() < 0.12,
            "{}: estimate {value:.3} vs true BER {:.3}",
            est.name(),
            task.true_ber
        );
    }
}

#[test]
fn one_nn_estimator_is_a_lower_bound_on_easy_and_moderate_tasks() {
    for (seed, sep) in [(1u64, 4.0f64), (2, 2.5), (3, 1.8)] {
        let task = make_task(5, sep, seed, 1200, 400);
        let est = OneNnEstimator::default();
        let value = est.estimate(
            &LabeledView::new(&task.train_x, &task.train_y),
            &LabeledView::new(&task.test_x, &task.test_y),
            task.num_classes,
        );
        // Finite-sample effects push the estimate up, never below by much.
        assert!(
            value >= task.true_ber - 0.03,
            "sep {sep}: estimate {value:.3} clearly below true BER {:.3}",
            task.true_ber
        );
    }
}

#[test]
fn estimators_follow_the_lemma21_noise_evolution() {
    // Inject uniform noise and verify the 1NN estimate tracks the predicted
    // BER evolution (the FeeBee evaluation protocol).
    let task = make_task(4, 3.0, 11, 1500, 500);
    let est = OneNnEstimator::default();
    let mut r = rng::seeded(99);
    for rho in [0.0f64, 0.2, 0.4] {
        let t = TransitionMatrix::uniform(task.num_classes, rho);
        let noisy_train = t.apply(&task.train_y, &mut r);
        let noisy_test = t.apply(&task.test_y, &mut r);
        let estimate = est.estimate(
            &LabeledView::new(&task.train_x, &noisy_train),
            &LabeledView::new(&task.test_x, &noisy_test),
            task.num_classes,
        );
        let expected = ber_after_uniform_noise(task.true_ber, rho, task.num_classes);
        assert!(
            (estimate - expected).abs() < 0.10,
            "rho {rho}: estimate {estimate:.3}, Lemma 2.1 predicts {expected:.3}"
        );
    }
}

#[test]
fn knn_posterior_estimator_improves_with_larger_k() {
    let task = make_task(3, 1.6, 13, 2000, 500);
    let train = LabeledView::new(&task.train_x, &task.train_y);
    let test = LabeledView::new(&task.test_x, &task.test_y);
    let small_k = KnnPosteriorEstimator::new(1).estimate(&train, &test, 3);
    let large_k = KnnPosteriorEstimator::new(30).estimate(&train, &test, 3);
    // k = 1 collapses to the raw 1NN error which overestimates the BER;
    // a moderate k should land closer to the truth.
    let err_small = (small_k - task.true_ber).abs();
    let err_large = (large_k - task.true_ber).abs();
    assert!(
        err_large <= err_small + 0.02,
        "k=30 ({large_k:.3}) should beat k=1 ({small_k:.3}) wrt {:.3}",
        task.true_ber
    );
}

/// The shared-table fast path must agree with each estimator's
/// self-contained evaluation: same engine, same distances, same tie-breaks —
/// the table only amortises the neighbour computation.
#[test]
fn shared_table_estimates_equal_individual_estimates() {
    let task = make_task(3, 2.0, 23, 600, 150);
    let train = LabeledView::new(&task.train_x, &task.train_y);
    let test = LabeledView::new(&task.test_x, &task.test_y);
    let estimators = default_estimators();
    let shared = estimate_all(&estimators, &train, &test, task.num_classes);
    for (est, &via_table) in estimators.iter().zip(&shared) {
        let individual = est.estimate(&train, &test, task.num_classes);
        assert!(
            (via_table - individual).abs() < 1e-12,
            "{}: shared-table {via_table} != individual {individual}",
            est.name()
        );
    }
}

/// The growing-state path must be invisible to every estimator: a state
/// appended round by round yields, at each round, estimates bit-identical to
/// a cold `estimate_all` over the same prefix — across the rounds *and*
/// across relabelled (noisy) label sets read against the same state.
#[test]
fn growing_state_estimates_equal_cold_estimates_at_every_round() {
    let task = make_task(3, 2.0, 53, 600, 150);
    let estimators = default_estimators();
    let k_max = shared_table_k(&estimators);
    let mut state =
        IncrementalTopK::new(task.test_x.clone(), task.test_y.clone(), Metric::SquaredEuclidean, k_max);
    let mut r = rng::seeded(54);
    let mut consumed = 0usize;
    for round_n in [200usize, 400, 600] {
        state.append(task.train_x.view().slice_rows(consumed, round_n), &task.train_y[consumed..round_n]);
        consumed = round_n;
        for rho in [0.0f64, 0.3] {
            let t = TransitionMatrix::uniform(task.num_classes, rho);
            let noisy_train = t.apply(&task.train_y, &mut r);
            let noisy_test = t.apply(&task.test_y, &mut r);
            let train = LabeledView::new(&task.train_x, &noisy_train).prefix(round_n);
            let test = LabeledView::new(&task.test_x, &noisy_test);
            let via_state = estimate_all_with_state(&estimators, &state, &train, &test, task.num_classes);
            let cold = estimate_all(&estimators, &train, &test, task.num_classes);
            for ((est, &a), &b) in estimators.iter().zip(&via_state).zip(&cold) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} at round {round_n} rho {rho}: state {a} vs cold {b}",
                    est.name()
                );
            }
        }
    }
}

#[test]
fn degenerate_empty_eval_split_through_shared_table() {
    let task = make_task(3, 2.0, 29, 120, 40);
    let train = LabeledView::new(&task.train_x, &task.train_y);
    let empty_x = Matrix::zeros(0, task.train_x.cols());
    let empty_y: Vec<u32> = vec![];
    let empty = LabeledView::new(&empty_x, &empty_y);
    let estimators = default_estimators();
    // Must not panic; every estimate stays a probability. The same holds when
    // an (unusual) caller hands the empty-eval table to the table path
    // directly.
    for value in estimate_all(&estimators, &train, &empty, task.num_classes) {
        assert!((0.0..=1.0).contains(&value), "estimate {value} out of range");
    }
    let table = shared_neighbor_table(train.features(), empty.features(), shared_table_k(&estimators));
    for value in estimate_all_with_table(&estimators, &table, &train, &empty, task.num_classes) {
        assert!((0.0..=1.0).contains(&value), "estimate {value} out of range");
    }
    // Empty train as well: the guarded path falls back to chance-level style
    // constants without touching the engine.
    for value in estimate_all(&estimators, &empty, &train, task.num_classes) {
        assert!((0.0..=1.0).contains(&value), "estimate {value} out of range");
    }
}

#[test]
fn degenerate_single_class_train_through_shared_table() {
    let task = make_task(3, 2.0, 31, 200, 60);
    let one_class = vec![1u32; task.train_y.len()];
    let train = LabeledView::new(&task.train_x, &one_class);
    let test = LabeledView::new(&task.test_x, &task.test_y);
    let estimators = default_estimators();
    let values = estimate_all(&estimators, &train, &test, task.num_classes);
    for (est, &value) in estimators.iter().zip(&values) {
        assert!((0.0..=1.0).contains(&value), "{}: estimate {value} out of range", est.name());
        // A single-class posterior is maximally confident: the plug-in risk
        // collapses to zero.
        if est.name() == "knn-posterior" {
            assert_eq!(value, 0.0);
        }
    }
}

#[test]
fn degenerate_k_exceeding_train_size_through_shared_table() {
    let task = make_task(2, 2.5, 37, 12, 30);
    let train = LabeledView::new(&task.train_x, &task.train_y);
    let test = LabeledView::new(&task.test_x, &task.test_y);
    let estimators: Vec<Box<dyn BerEstimator>> = vec![
        Box::new(OneNnEstimator::default()),
        Box::new(KnnPosteriorEstimator::new(500)), // k ≫ train.len()
    ];
    assert_eq!(shared_table_k(&estimators), 500);
    let values = estimate_all(&estimators, &train, &test, task.num_classes);
    for (est, &value) in estimators.iter().zip(&values) {
        assert!((0.0..=1.0).contains(&value), "{}: estimate {value} out of range", est.name());
        let individual = est.estimate(&train, &test, task.num_classes);
        assert!((value - individual).abs() < 1e-12, "{}: table/individual mismatch", est.name());
    }
}

/// The exact bits every default estimator reports, and the GHP cross-edge
/// count over the training split, on a tie-heavy cloud (3 classes, d = 3,
/// every 7th row a duplicate) and a d = 16 Gaussian mixture (4 classes).
/// GHP's Prim loop and KDE's kernel sums keep their own summation and
/// tie-break order; any change to either moves these bits.
#[test]
fn default_estimates_and_ghp_cross_counts_are_pinned_bit_for_bit() {
    let (tie_x, tie_y) = cloud_with_ties(301, 420, 3, 3);
    let (tie_eval_x, tie_eval_y) = cloud_with_ties(302, 140, 3, 3);
    let mixture = GaussianMixture::from_spec(&GaussianMixtureSpec {
        num_classes: 4,
        latent_dim: 16,
        class_sep: 0.35,
        within_std: 1.0,
        seed: 303,
    });
    let mut r = rng::seeded(304);
    let (mix_x, mix_y) = mixture.sample(700, &mut r);
    let (mix_eval_x, mix_eval_y) = mixture.sample(200, &mut r);
    // Estimates in `default_estimators()` order: 1nn-cover-hart,
    // knn-posterior, ghp-mst, kde-plugin, knn-extrapolation.
    let cases = [
        (
            "ties",
            (&tie_x, &tie_y, &tie_eval_x, &tie_eval_y, 3),
            [
                0x3fddeae54f7c6dd1u64,
                0x3fdf2d593bfa2605,
                0x3fd4a0ea0ea0ea0f,
                0x3fe139e1a7a31ee5,
                0x3fdea39fdf47747b,
            ],
            (276, 420),
        ),
        (
            "mixture",
            (&mix_x, &mix_y, &mix_eval_x, &mix_eval_y, 4),
            [
                0x3fd2abe87177cf2a,
                0x3fdbd70a3d70a3d6,
                0x3fd0b60b60b60b61,
                0x3fd17a0bbed566b5,
                0x3fd1807f0d570258,
            ],
            (381, 700),
        ),
    ];
    let estimators = default_estimators();
    for (name, (train_x, train_y, eval_x, eval_y, classes), bits, cross) in cases {
        let train = LabeledView::new(train_x, train_y);
        let eval = LabeledView::new(eval_x, eval_y);
        let values = estimate_all(&estimators, &train, &eval, classes);
        for ((est, value), expected) in estimators.iter().zip(&values).zip(bits) {
            assert_eq!(
                value.to_bits(),
                expected,
                "{name} {}: {value} != {}",
                est.name(),
                f64::from_bits(expected)
            );
        }
        assert_eq!(GhpEstimator::cross_edge_count(train_x, train_y), cross, "{name} cross edges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Cover–Hart correction never exceeds its input and stays in [0, 1].
    #[test]
    fn cover_hart_is_contractive(err in 0.0f64..1.0, c in 2usize..200) {
        let b = cover_hart_lower_bound(err, c);
        prop_assert!(b >= 0.0);
        prop_assert!(b <= err + 1e-12);
        prop_assert!(b <= 1.0);
    }

    /// Chaining Lemma 2.1 twice equals a single application with the composed
    /// noise level (the uniform-noise channel family is closed under
    /// composition).
    #[test]
    fn lemma21_composes(ber in 0.0f64..0.4, rho1 in 0.0f64..0.9, rho2 in 0.0f64..0.9, c in 2usize..50) {
        let step = ber_after_uniform_noise(ber_after_uniform_noise(ber, rho1, c), rho2, c);
        let combined_rho = 1.0 - (1.0 - rho1) * (1.0 - rho2);
        let direct = ber_after_uniform_noise(ber, combined_rho, c);
        prop_assert!((step - direct).abs() < 1e-9);
    }
}
