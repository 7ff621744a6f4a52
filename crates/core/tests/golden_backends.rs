//! Golden estimator parity: the shared neighbour table and all five
//! Bayes-error estimators must produce **identical** results whether
//! distances flow through the exhaustive engine, the exact-pruned clustered
//! index, or the int8 scalar-quantized two-phase scan. The non-exhaustive
//! backends are forced (tiny fixtures never cross the auto-selection
//! threshold) so both pruned paths are genuinely exercised.

use snoopy_data::registry::{load_clean, SizeScale};
use snoopy_embeddings::zoo_for_task;
use snoopy_estimators::{
    default_estimators, estimate_all_with_backend, shared_neighbor_table_with_backend, shared_table_k,
    LabeledView,
};
use snoopy_knn::EvalBackend;

const CLUSTERED: EvalBackend = EvalBackend::clustered(5);
const QUANTIZED: EvalBackend = EvalBackend::quantized(5);

#[test]
fn all_five_estimators_and_neighbor_tables_are_identical_across_backends() {
    let task = load_clean("cifar10", SizeScale::Tiny, 43);
    let zoo = zoo_for_task(&task, 7);
    // Embed train/test through the first transformation of the zoo — the
    // estimators consume the embedded views exactly like `exp_estimators`.
    let train_x = zoo[0].transform(task.train.features_view());
    let test_x = zoo[0].transform(task.test.features_view());
    let train = LabeledView::new(&train_x, &task.train.labels).with_classes(task.num_classes);
    let test = LabeledView::new(&test_x, &task.test.labels).with_classes(task.num_classes);

    let estimators = default_estimators();
    assert_eq!(estimators.len(), 5, "the comparison covers all five estimator families");

    let k_max = shared_table_k(&estimators);
    let table_exhaustive =
        shared_neighbor_table_with_backend(train.features(), test.features(), k_max, EvalBackend::Exhaustive);
    for (backend, name) in [(CLUSTERED, "clustered"), (QUANTIZED, "quantized")] {
        let table_other =
            shared_neighbor_table_with_backend(train.features(), test.features(), k_max, backend);
        assert_eq!(table_exhaustive, table_other, "{name}: NeighborTable rows must be identical");
        for q in 0..table_exhaustive.num_queries() {
            assert_eq!(table_exhaustive.neighbors(q), table_other.neighbors(q), "{name}: query {q}");
        }
    }

    let ex = estimate_all_with_backend(&estimators, &train, &test, task.num_classes, EvalBackend::Exhaustive);
    for (backend, name) in [(CLUSTERED, "clustered"), (QUANTIZED, "quantized")] {
        let other = estimate_all_with_backend(&estimators, &train, &test, task.num_classes, backend);
        for ((est, &a), &b) in estimators.iter().zip(&ex).zip(&other) {
            assert_eq!(a.to_bits(), b.to_bits(), "{}: exhaustive {a} vs {name} {b}", est.name());
        }
    }
}
