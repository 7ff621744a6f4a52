//! Figure 8: how accurate the Eq. 10 extrapolation is when fitted on a
//! fraction of the samples and extrapolated to the full dataset (CIFAR-100
//! analogue, low label noise).

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::zoo_for_task;
use snoopy_estimators::{cover_hart_lower_bound, LogLinearFit};
use snoopy_knn::{IncrementalTopK, Metric};

fn main() {
    let (scale, []) = parse_args([]);
    let task = load_with_noise("cifar100", scale, &NoiseModel::Uniform(0.2), 13);
    let zoo = zoo_for_task(&task, 13);
    let embedding = zoo.iter().find(|t| t.name() == "efficientnet-b5").expect("zoo has efficientnet-b5");
    let train_e = embedding.transform(task.train.features.view());
    let test_e = embedding.transform(task.test.features.view());

    // Build a fine-grained convergence curve once (5% batches).
    let mut stream = IncrementalTopK::new(test_e, task.test.labels.clone(), Metric::SquaredEuclidean, 1);
    let batch = (task.train.len() / 20).max(1);
    let mut consumed = 0;
    while consumed < task.train.len() {
        let end = (consumed + batch).min(task.train.len());
        stream.append(&train_e.slice_rows(consumed, end), &task.train.labels[consumed..end]);
        consumed = end;
    }
    let full_curve = stream.curve().to_vec();
    let full_n = task.train.len();
    let actual_full_error = full_curve.last().unwrap().1;
    let actual_full_estimate = cover_hart_lower_bound(actual_full_error, task.num_classes);

    let mut table = ResultsTable::new(
        "fig8_extrapolation_accuracy",
        &[
            "fraction_used",
            "points_used",
            "predicted_error_at_full_n",
            "actual_error_at_full_n",
            "abs_gap_in_estimate",
        ],
    );
    for &fraction in &[0.05f64, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let cutoff = ((full_n as f64) * fraction).round() as usize;
        let prefix: Vec<(usize, f64)> =
            full_curve.iter().copied().filter(|&(n, _)| n <= cutoff.max(batch * 2)).collect();
        if prefix.len() < 2 {
            continue;
        }
        let fit = LogLinearFit::fit(&prefix);
        let predicted = fit.predict_error(full_n);
        let predicted_estimate = cover_hart_lower_bound(predicted, task.num_classes);
        table.push(vec![
            f4(fraction),
            prefix.len().to_string(),
            f4(predicted),
            f4(actual_full_error),
            f4((predicted_estimate - actual_full_estimate).abs()),
        ]);
    }
    table.finish();
}
