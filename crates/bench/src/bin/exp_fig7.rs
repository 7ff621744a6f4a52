//! Figure 7: convergence plot for a fixed embedding on CIFAR-100 replicas
//! with 20 % / 40 % uniform noise, two target accuracies each, plus the
//! Eq. 10 extrapolation of additional samples needed.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::zoo_for_task;
use snoopy_estimators::{cover_hart_lower_bound, LogLinearFit};
use snoopy_knn::{IncrementalTopK, Metric};

fn main() {
    let (scale, []) = parse_args([]);
    let mut curve_table = ResultsTable::new(
        "fig7_convergence_cifar100",
        &["noise", "train_samples", "one_nn_error", "ch_estimate"],
    );
    let mut target_table = ResultsTable::new(
        "fig7_targets_cifar100",
        &["noise", "target_accuracy", "reachable_now", "additional_samples_estimate", "trustworthy"],
    );

    for &rho in &[0.2f64, 0.4] {
        let task = load_with_noise("cifar100", scale, &NoiseModel::Uniform(rho), 7);
        let zoo = zoo_for_task(&task, 7);
        let embedding = zoo.iter().find(|t| t.name() == "efficientnet-b5").expect("zoo has efficientnet-b5");
        let train_e = embedding.transform(task.train.features.view());
        let test_e = embedding.transform(task.test.features.view());

        let mut stream = IncrementalTopK::new(test_e, task.test.labels.clone(), Metric::SquaredEuclidean, 1);
        let batch = (task.train.len() / 10).max(1);
        let mut consumed = 0;
        while consumed < task.train.len() {
            let end = (consumed + batch).min(task.train.len());
            stream.append(&train_e.slice_rows(consumed, end), &task.train.labels[consumed..end]);
            consumed = end;
        }
        for &(n, err) in stream.curve() {
            curve_table.push(vec![
                f4(rho),
                n.to_string(),
                f4(err),
                f4(cover_hart_lower_bound(err, task.num_classes)),
            ]);
        }

        let fit = LogLinearFit::fit(stream.curve());
        let current_estimate = cover_hart_lower_bound(stream.error(), task.num_classes);
        // Targets, as in the paper's Fig. 7 discussion: a modest extension of
        // what the data already supports (trustworthy small extrapolation)
        // versus the optimistic "error equal to the noise level" target that
        // requires an extrapolation far beyond the observed range.
        for target_error in [current_estimate * 0.9, rho + 0.10, rho] {
            let target_accuracy = 1.0 - target_error;
            let reachable_now = cover_hart_lower_bound(stream.error(), task.num_classes) <= target_error;
            let extra = fit.additional_samples_to_reach(target_error);
            let trustworthy = extra.map(|e| fit.reliable(task.train.len() + e, 10.0)).unwrap_or(false);
            target_table.push(vec![
                f4(rho),
                f4(target_accuracy),
                reachable_now.to_string(),
                extra.map(|e| e.to_string()).unwrap_or_else(|| "unreachable".into()),
                trustworthy.to_string(),
            ]);
        }
    }
    curve_table.finish();
    target_table.finish();
}
