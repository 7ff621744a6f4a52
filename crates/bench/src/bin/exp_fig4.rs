//! Figure 4: error estimations versus (simulated) time for three synthetic
//! uniform-noise levels (0 %, 20 %, 40 %) across all six datasets, comparing
//! Snoopy against the LR proxy, AutoML, and FineTune baselines. The dashed
//! reference of the paper (expected increase of the SOTA under Lemma 2.1) is
//! included as its own column.

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{datasets_arg, f1, f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::noise::{ber_after_uniform_noise, NoiseModel};
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::zoo_for_task;
use snoopy_models::logreg::{grid_search_error, LOGREG_GRID_SIZE};
use snoopy_models::{AutoMlConfig, AutoMlSearch, FineTuneBaseline};

fn main() {
    let (scale, [datasets]) = parse_args([("datasets", "all")]);
    let datasets = datasets_arg(&datasets, true);
    let mut table = ResultsTable::new(
        "fig4_estimations_vs_time_synthetic_noise",
        &["dataset", "noise", "method", "error_estimate", "simulated_seconds", "expected_noisy_sota"],
    );

    for spec in datasets {
        for &rho in &[0.0f64, 0.2, 0.4] {
            let task = load_with_noise(spec.name, scale, &NoiseModel::Uniform(rho), 100);
            let expected = ber_after_uniform_noise(spec.sota_error, rho, spec.num_classes);
            let zoo = zoo_for_task(&task, 100);

            // Snoopy (successive halving with tangents).
            let report = FeasibilityStudy::new(
                SnoopyConfig::with_target(1.0 - expected)
                    .strategy(SelectionStrategy::SuccessiveHalvingTangent)
                    .batch_fraction(0.1),
            )
            .run(&task, &zoo);
            table.push(vec![
                spec.name.into(),
                f4(rho),
                "snoopy".into(),
                f4(report.ber_estimate),
                f1(report.simulated_cost_seconds),
                f4(expected),
            ]);

            // LR proxy on the best (most expensive) embedding.
            let best = &zoo[zoo
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.cost_per_sample().total_cmp(&b.1.cost_per_sample()))
                .map(|(i, _)| i)
                .unwrap()];
            let train_e = best.transform(task.train.features.view());
            let test_e = best.transform(task.test.features.view());
            let (lr_err, _) = grid_search_error(
                &train_e,
                &task.train.labels,
                &test_e,
                &task.test.labels,
                task.num_classes,
                10,
                3,
            );
            let lr_cost =
                best.cost_for(task.total_len()) + 0.004 * task.train.len() as f64 * LOGREG_GRID_SIZE as f64;
            table.push(vec![
                spec.name.into(),
                f4(rho),
                "lr-proxy".into(),
                f4(lr_err),
                f1(lr_cost),
                f4(expected),
            ]);

            // AutoML (short budget).
            let automl = AutoMlSearch::new(AutoMlConfig { epochs: 8, ..AutoMlConfig::short(7) }).run(
                &task.train.features,
                &task.train.labels,
                &task.test.features,
                &task.test.labels,
                task.num_classes,
            );
            table.push(vec![
                spec.name.into(),
                f4(rho),
                "automl-short".into(),
                f4(automl.best_error),
                f1(automl.simulated_seconds),
                f4(expected),
            ]);

            // FineTune.
            let finetune = FineTuneBaseline::quick(9).run(&task);
            table.push(vec![
                spec.name.into(),
                f4(rho),
                "finetune".into(),
                f4(finetune.test_error),
                f1(finetune.simulated_seconds),
                f4(expected),
            ]);
        }
    }
    table.finish();
}
