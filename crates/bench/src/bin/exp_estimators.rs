//! FeeBee-style ablation (Section II-A): how well does each Bayes-error
//! estimator family track the known BER evolution under uniform label noise,
//! both in the low-dimensional latent space and on high-dimensional "raw"
//! features where density estimation struggles — across growing
//! training-set rounds?
//!
//! One [`IncrementalTopK`] state per (representation, split) carries the
//! neighbour computation across *everything*: each sample-size round
//! **appends** only the new training rows (`O(new × test)` kernel work, no
//! rebuild), and within a round every label-noise level re-reads the same
//! state snapshot — neighbours depend only on features.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::noise::{ber_after_uniform_noise, TransitionMatrix};
use snoopy_estimators::{
    default_estimators, estimate_all_with_state, shared_table_k, IncrementalTopK, LabeledView, Metric,
};
use snoopy_linalg::projection::random_orthonormal_map;
use snoopy_linalg::{rng, Matrix};

fn main() {
    // Fixed-size synthetic sweep: `--scale` is accepted and has no effect.
    let (_, []) = parse_args([]);
    let num_classes = 5;
    let mixture = GaussianMixture::from_spec(&GaussianMixtureSpec {
        num_classes,
        latent_dim: 12,
        class_sep: 2.2,
        within_std: 1.0,
        seed: 17,
    });
    let mut sample_rng = rng::seeded(18);
    let (train_lat, train_y) = mixture.sample(3_000, &mut sample_rng);
    let (test_lat, test_y) = mixture.sample(800, &mut sample_rng);
    let clean_ber = mixture.bayes_error_monte_carlo(50_000, 19);

    // High-dimensional "raw" variant: embed the latent points into 200
    // dimensions and add observation noise (the regime in which the paper —
    // and FeeBee — find density/divergence estimators fall behind 1NN).
    let mixing = random_orthonormal_map(200, 12, 21);
    let lift = |latent: &Matrix, seed: u64| {
        let mut r = rng::seeded(seed);
        let mut raw = latent.matmul(&mixing.transpose());
        for v in raw.data_mut() {
            *v += (rng::normal(&mut r) * 0.6) as f32;
        }
        raw
    };
    let train_raw = lift(&train_lat, 22);
    let test_raw = lift(&test_lat, 23);

    let estimators = default_estimators();
    let mut table = ResultsTable::new(
        "estimator_ablation_feebee",
        &["representation", "train_n", "noise", "true_noisy_ber", "estimator", "estimate", "absolute_error"],
    );
    let round_fractions = [0.25f64, 0.5, 1.0];
    let noise_levels = [0.0f64, 0.2, 0.4, 0.6, 0.8];
    let mut noise_rng = rng::seeded(20);

    let k_max = shared_table_k(&estimators);

    for (repr, train_x, test_x) in
        [("latent-d12", &train_lat, &test_lat), ("raw-d200", &train_raw, &test_raw)]
    {
        // One growing state per (representation, split): each round appends
        // the training rows beyond the previous round's prefix, and every
        // noise level of every round reads the same snapshot.
        let mut state = IncrementalTopK::new(test_x.clone(), test_y.clone(), Metric::SquaredEuclidean, k_max);
        let mut consumed = 0usize;
        let mut mae = vec![0.0f64; estimators.len()];
        for &fraction in &round_fractions {
            let n = ((train_x.rows() as f64) * fraction).round() as usize;
            state.append(train_x.view().slice_rows(consumed, n), &train_y[consumed..n]);
            consumed = n;
            for &rho in &noise_levels {
                let t = TransitionMatrix::uniform(num_classes, rho);
                let noisy_train = t.apply(&train_y, &mut noise_rng);
                let noisy_test = t.apply(&test_y, &mut noise_rng);
                let truth = ber_after_uniform_noise(clean_ber, rho, num_classes);
                let values = estimate_all_with_state(
                    &estimators,
                    &state,
                    &LabeledView::new(train_x, &noisy_train).prefix(n),
                    &LabeledView::new(test_x, &noisy_test),
                    num_classes,
                );
                for (i, (est, value)) in estimators.iter().zip(&values).enumerate() {
                    if n == train_x.rows() {
                        mae[i] += (value - truth).abs() / noise_levels.len() as f64;
                    }
                    table.push(vec![
                        repr.into(),
                        n.to_string(),
                        f4(rho),
                        f4(truth),
                        est.name().into(),
                        f4(*value),
                        f4((value - truth).abs()),
                    ]);
                }
            }
        }
        println!("\n[{repr}] mean absolute error across noise levels (full training set):");
        for (est, err) in estimators.iter().zip(&mae) {
            println!("  {:<16} {:.4}", est.name(), err);
        }
    }
    table.finish();
}
