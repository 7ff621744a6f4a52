//! Table I: dataset statistics and SOTA errors, plus the calibrated Bayes
//! error of each generated replica.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::registry::table1_specs;

fn main() {
    let (scale, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "table1_datasets",
        &[
            "dataset",
            "modality",
            "classes",
            "paper_train",
            "paper_test",
            "replica_train",
            "replica_test",
            "sota_error",
            "replica_true_ber",
        ],
    );
    for spec in table1_specs() {
        let (train, test) = spec.sizes(scale);
        let task = spec.generate(scale, 1234);
        table.push(vec![
            spec.name.to_string(),
            spec.modality.name().to_string(),
            spec.num_classes.to_string(),
            spec.paper_train.to_string(),
            spec.paper_test.to_string(),
            train.to_string(),
            test.to_string(),
            f4(spec.sota_error),
            f4(task.meta.true_ber.unwrap_or(f64::NAN)),
        ]);
    }
    table.finish();
}
