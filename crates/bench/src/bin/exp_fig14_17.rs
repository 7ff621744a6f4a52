//! Figures 14–17: the regime quantities of Section IV-B (transformation bias
//! δ_f, asymptotic tightness Δ_f and Δ_id, finite-sample gap γ_{f,n}) and the
//! Condition 8 margin, evaluated on a task with known Bayes error.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_core::theory::{condition8_summary, regime_quantities};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::zoo_for_task;

fn main() {
    let (scale, []) = parse_args([]);
    let task = load_with_noise("cifar10", scale, &NoiseModel::Clean, 55);
    let zoo = zoo_for_task(&task, 55);
    let fractions = [0.25f64, 0.5, 1.0];

    let mut table = ResultsTable::new(
        "fig14_17_regime_quantities",
        &[
            "transformation",
            "true_ber",
            "transformed_ber",
            "delta_f",
            "estimator_limit",
            "tightness_Delta_f",
            "gamma_quarter",
            "gamma_half",
            "gamma_full",
            "condition8_margin_full",
        ],
    );
    for name in ["raw", "pca32", "nca", "random-proj32", "alexnet", "resnet50-v2", "efficientnet-b7"] {
        let Some(t) = zoo.iter().find(|t| t.name() == name) else { continue };
        let q = regime_quantities(&task, t.as_ref(), &fractions);
        let gammas: Vec<f64> = q.finite_sample_gaps.iter().map(|&(_, g)| g).collect();
        table.push(vec![
            q.name.clone(),
            f4(q.true_ber),
            f4(q.transformed_ber),
            f4(q.delta_f),
            f4(q.estimator_limit),
            f4(q.tightness),
            f4(gammas.first().copied().unwrap_or(0.0)),
            f4(gammas.get(1).copied().unwrap_or(0.0)),
            f4(gammas.get(2).copied().unwrap_or(0.0)),
            f4(q.condition8_margin(task.train.len()).unwrap_or(f64::NAN)),
        ]);
    }
    table.finish();

    let (holds, total) = condition8_summary(&task, &zoo, &fractions);
    println!("\nCondition 8 (no underestimation of the BER) holds for {holds} / {total} zoo members.");
}
