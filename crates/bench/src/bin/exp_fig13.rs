//! Figure 13: incremental re-execution after cleaning 1 % of the labels
//! versus re-running the 1NN evaluation from scratch, on all six datasets.
//! The incremental state is held at k = 3, so the same relabel refresh also
//! answers the k-prefix majority-vote error — both are asserted equal to a
//! cold rebuild before anything is timed.

use snoopy_bench::{parse_args, ResultsTable};
use snoopy_data::cleaning::clean_fraction;
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::{load_with_noise, table1_specs};
use snoopy_embeddings::zoo_for_task;
use snoopy_knn::{BruteForceIndex, IncrementalTopK, Metric};
use snoopy_linalg::rng;
use std::time::Instant;

/// Neighbours retained per test point: enough for the k = 3 vote refresh on
/// top of the 1NN signal, from one and the same state.
const TABLE_K: usize = 3;

fn main() {
    let (scale, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "fig13_incremental_execution",
        &["dataset", "train", "test", "from_scratch_ms", "incremental_ms", "speedup"],
    );
    for spec in table1_specs() {
        let mut task = load_with_noise(spec.name, scale, &NoiseModel::Uniform(0.2), 33);
        let zoo = zoo_for_task(&task, 33);
        let best = zoo.iter().max_by(|a, b| a.cost_per_sample().total_cmp(&b.cost_per_sample())).unwrap();
        let train_e = best.transform(task.train.features.view());
        let test_e = best.transform(task.test.features.view());

        let mut cache = IncrementalTopK::build(
            &train_e,
            &task.train.labels,
            &test_e,
            &task.test.labels,
            Metric::SquaredEuclidean,
            TABLE_K,
        );

        // Clean 1% of the labels, then time both re-evaluation paths.
        let mut r = rng::seeded(34);
        clean_fraction(&mut task, 0.01, &mut r);

        let start = Instant::now();
        let scratch_index =
            BruteForceIndex::new(&train_e, &task.train.labels, task.num_classes, Metric::SquaredEuclidean);
        let scratch_error = scratch_index.one_nn_error(&test_e, &task.test.labels);
        let scratch_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let incremental_error = cache.set_labels(&task.train.labels, &task.test.labels);
        let incremental_ms = start.elapsed().as_secs_f64() * 1e3;
        assert!((scratch_error - incremental_error).abs() < 1e-12, "incremental must equal full recompute");
        // The k > 1 refresh from the very same state must equal a cold
        // rebuild's majority-vote error too.
        let scratch_k = scratch_index.knn_error(&test_e, &task.test.labels, TABLE_K);
        let incremental_k = cache.knn_error(TABLE_K, task.num_classes);
        assert!(
            (scratch_k - incremental_k).abs() < 1e-12,
            "incremental k={TABLE_K} vote must equal full recompute ({incremental_k} vs {scratch_k})"
        );

        table.push(vec![
            spec.name.into(),
            task.train.len().to_string(),
            task.test.len().to_string(),
            format!("{scratch_ms:.3}"),
            format!("{incremental_ms:.4}"),
            format!("{:.0}x", scratch_ms / incremental_ms.max(1e-6)),
        ]);
    }
    table.finish();
}
