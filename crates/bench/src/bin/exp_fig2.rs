//! Figure 2: theoretical justification — 1NN error and its Cover–Hart
//! estimate under increasing uniform label noise, for raw features and the
//! best transformation, versus a downscaled logistic-regression proxy.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::noise::{ber_after_uniform_noise, NoiseModel};
use snoopy_data::registry::{apply_noise, load_clean};
use snoopy_embeddings::zoo_for_task;
use snoopy_estimators::cover_hart_lower_bound;
use snoopy_knn::{BruteForceIndex, Metric};
use snoopy_models::logreg::grid_search_error;

fn main() {
    let (scale, []) = parse_args([]);
    let base = load_clean("cifar10", scale, 2);
    let clean_ber = base.meta.true_ber.unwrap();
    let zoo = zoo_for_task(&base, 2);
    let best = zoo.iter().find(|t| t.name() == "efficientnet-b7").expect("zoo contains efficientnet-b7");

    // Embeddings never change with label noise: compute them once.
    let train_raw = &base.train.features;
    let test_raw = &base.test.features;
    let train_best = best.transform(train_raw.view());
    let test_best = best.transform(test_raw.view());

    let mut table = ResultsTable::new(
        "fig2_downscaling_justification",
        &[
            "noise",
            "true_ber_lemma21",
            "raw_1nn_error",
            "raw_ch_estimate",
            "best_1nn_error",
            "best_ch_estimate",
            "lr_error",
            "lr_scaled_08",
            "lr_ch_normalized",
        ],
    );
    for step in 0..=10 {
        let rho = step as f64 / 10.0;
        let mut task = base.clone();
        apply_noise(&mut task, &NoiseModel::Uniform(rho), 77 + step as u64);

        let raw_err =
            BruteForceIndex::new(train_raw, &task.train.labels, task.num_classes, Metric::SquaredEuclidean)
                .one_nn_error(test_raw, &task.test.labels);
        let best_err =
            BruteForceIndex::new(&train_best, &task.train.labels, task.num_classes, Metric::SquaredEuclidean)
                .one_nn_error(&test_best, &task.test.labels);
        let (lr_err, _) = grid_search_error(
            &train_best,
            &task.train.labels,
            &test_best,
            &task.test.labels,
            task.num_classes,
            10,
            5,
        );
        table.push(vec![
            f4(rho),
            f4(ber_after_uniform_noise(clean_ber, rho, task.num_classes)),
            f4(raw_err),
            f4(cover_hart_lower_bound(raw_err, task.num_classes)),
            f4(best_err),
            f4(cover_hart_lower_bound(best_err, task.num_classes)),
            f4(lr_err),
            f4(lr_err * 0.8),
            f4(cover_hart_lower_bound(lr_err, task.num_classes)),
        ]);
    }
    table.finish();
}
