//! Table II: statistics of the CIFAR-N transition-matrix replicas.

use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_data::noise::cifar_n_variants;

fn main() {
    // Transition-matrix statistics: `--scale` is accepted and has no effect.
    let (_, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "table2_cifar_n",
        &[
            "variant",
            "classes",
            "reported_noise",
            "generated_noise",
            "max_flip",
            "min_flip",
            "max_offdiag",
            "diag_dominant",
        ],
    );
    for v in cifar_n_variants() {
        table.push(vec![
            v.name.clone(),
            v.matrix.num_classes().to_string(),
            f4(v.reported_noise),
            f4(v.matrix.overall_noise(None)),
            f4(v.matrix.max_flip()),
            f4(v.matrix.min_flip()),
            f4(v.matrix.max_offdiag()),
            v.matrix.diagonal_dominant().to_string(),
        ]);
    }
    table.finish();
}
