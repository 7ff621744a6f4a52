//! Figures 18–20: evaluation and convergence of the 1NN estimator for
//! different transformations — (a) estimate versus label noise with the full
//! training set, (b) estimate versus training-set size without noise — for
//! every Table I dataset.

use snoopy_bench::{datasets_arg, f4, parse_args, ResultsTable};
use snoopy_data::noise::{ber_after_uniform_noise, NoiseModel};
use snoopy_data::registry::{load_clean, load_with_noise};
use snoopy_embeddings::zoo_for_task;
use snoopy_estimators::cover_hart_lower_bound;
use snoopy_knn::{BruteForceIndex, IncrementalTopK, Metric};

fn main() {
    let (scale, [datasets]) = parse_args([("datasets", "all")]);
    let datasets = datasets_arg(&datasets, true);
    let embeddings_of_interest = ["raw", "pca64", "efficientnet-b7", "xlnet", "use-large", "nnlm-en-50"];

    let mut noise_table = ResultsTable::new(
        "fig18_20_noise_sweep",
        &["dataset", "embedding", "noise", "one_nn_error", "ch_estimate", "lemma21_reference"],
    );
    let mut growth_table = ResultsTable::new(
        "fig18_20_sample_growth",
        &["dataset", "embedding", "train_samples", "one_nn_error", "ch_estimate"],
    );

    for spec in datasets {
        let clean = load_clean(spec.name, scale, 99);
        let clean_ber = clean.meta.true_ber.unwrap();
        let zoo = zoo_for_task(&clean, 99);
        let members: Vec<_> = zoo.iter().filter(|t| embeddings_of_interest.contains(&t.name())).collect();

        // (a) noise sweep with the full training set.
        for &rho in &[0.0f64, 0.2, 0.4, 0.6, 0.8] {
            let task = load_with_noise(spec.name, scale, &NoiseModel::Uniform(rho), 99);
            for t in &members {
                let train_e = t.transform(task.train.features.view());
                let test_e = t.transform(task.test.features.view());
                let err = BruteForceIndex::new(
                    &train_e,
                    &task.train.labels,
                    task.num_classes,
                    Metric::SquaredEuclidean,
                )
                .one_nn_error(&test_e, &task.test.labels);
                noise_table.push(vec![
                    spec.name.into(),
                    t.name().into(),
                    f4(rho),
                    f4(err),
                    f4(cover_hart_lower_bound(err, task.num_classes)),
                    f4(ber_after_uniform_noise(clean_ber, rho, task.num_classes)),
                ]);
            }
        }

        // (b) convergence with growing sample size, no label noise.
        for t in &members {
            let train_e = t.transform(clean.train.features.view());
            let test_e = t.transform(clean.test.features.view());
            let mut stream =
                IncrementalTopK::new(test_e, clean.test.labels.clone(), Metric::SquaredEuclidean, 1);
            let batch = (clean.train.len() / 8).max(1);
            let mut consumed = 0;
            while consumed < clean.train.len() {
                let end = (consumed + batch).min(clean.train.len());
                stream.append(train_e.view().slice_rows(consumed, end), &clean.train.labels[consumed..end]);
                consumed = end;
            }
            for &(n, err) in stream.curve() {
                growth_table.push(vec![
                    spec.name.into(),
                    t.name().into(),
                    n.to_string(),
                    f4(err),
                    f4(cover_hart_lower_bound(err, clean.num_classes)),
                ]);
            }
        }
    }
    noise_table.finish();
    growth_table.finish();
}
