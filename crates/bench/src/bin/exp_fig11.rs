//! Figure 11: generalisation to small tasks (VTAB-like suite) — the
//! difference between Snoopy's projected accuracy and the best fine-tuned
//! accuracy on 19 tasks with 1 000 training samples each.

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::registry::vtab_suite;
use snoopy_embeddings::zoo_for_task;
use snoopy_models::FineTuneBaseline;

fn main() {
    // The VTAB-like suite has a fixed size: `--scale` is accepted and has no
    // effect.
    let (_, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "fig11_vtab_generalisation",
        &["task", "classes", "true_ber", "snoopy_projected_accuracy", "finetune_accuracy", "difference"],
    );
    let mut differences = Vec::new();
    for task in vtab_suite(2024) {
        let zoo = zoo_for_task(&task, 2024);
        let report = FeasibilityStudy::new(
            SnoopyConfig::with_target(0.9)
                .strategy(SelectionStrategy::SuccessiveHalvingTangent)
                .batch_fraction(0.2),
        )
        .run(&task, &zoo);
        let finetune = FineTuneBaseline::quick(7).run(&task);
        let diff = report.projected_accuracy - finetune.test_accuracy;
        differences.push(diff);
        table.push(vec![
            task.name.clone(),
            task.num_classes.to_string(),
            f4(task.meta.true_ber.unwrap_or(f64::NAN)),
            f4(report.projected_accuracy),
            f4(finetune.test_accuracy),
            f4(diff),
        ]);
    }
    table.finish();

    let mean = differences.iter().sum::<f64>() / differences.len() as f64;
    let within_10 = differences.iter().filter(|d| d.abs() <= 0.10).count();
    println!(
        "\nsummary: mean(projected - finetune) = {mean:.4}; {} / {} tasks within 0.10",
        within_10,
        differences.len()
    );
}
