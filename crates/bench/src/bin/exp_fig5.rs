//! Figure 5: error estimations versus time on the CIFAR-N (real human noise)
//! replicas, together with the Theorem 3.1 bounds and the Eq. 20
//! approximation.

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{f1, f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::noise::{ber_approx_class_dependent, ber_bounds_class_dependent, cifar_n_variants};
use snoopy_data::registry::load_cifar_n;
use snoopy_embeddings::zoo_for_task;
use snoopy_models::logreg::{grid_search_error, LOGREG_GRID_SIZE};
use snoopy_models::FineTuneBaseline;

fn main() {
    let (scale, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "fig5_estimations_vs_time_cifar_n",
        &[
            "variant",
            "method",
            "error_estimate",
            "simulated_seconds",
            "thm31_lower",
            "thm31_upper",
            "eq20_approx",
        ],
    );
    for variant in cifar_n_variants() {
        let task = load_cifar_n(&variant.name, scale, 500);
        let (lo, hi) = ber_bounds_class_dependent(task.meta.sota_error, &variant.matrix);
        let approx = ber_approx_class_dependent(task.meta.sota_error, &variant.matrix, None);
        let zoo = zoo_for_task(&task, 500);

        let report = FeasibilityStudy::new(
            SnoopyConfig::with_target(1.0 - approx)
                .strategy(SelectionStrategy::SuccessiveHalvingTangent)
                .batch_fraction(0.1),
        )
        .run(&task, &zoo);
        table.push(vec![
            variant.name.clone(),
            "snoopy".into(),
            f4(report.ber_estimate),
            f1(report.simulated_cost_seconds),
            f4(lo),
            f4(hi),
            f4(approx),
        ]);

        let best = zoo.iter().max_by(|a, b| a.cost_per_sample().total_cmp(&b.cost_per_sample())).unwrap();
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
            variant.name.clone(),
            "lr-proxy".into(),
            f4(lr_err),
            f1(lr_cost),
            f4(lo),
            f4(hi),
            f4(approx),
        ]);

        let finetune = FineTuneBaseline::quick(11).run(&task);
        table.push(vec![
            variant.name.clone(),
            "finetune".into(),
            f4(finetune.test_error),
            f1(finetune.simulated_seconds),
            f4(lo),
            f4(hi),
            f4(approx),
        ]);
    }
    table.finish();
}
