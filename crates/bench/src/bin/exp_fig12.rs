//! Figure 12: comparing selection strategies (perfect, uniform allocation,
//! successive halving, successive halving with tangents) by the simulated
//! inference cost and wall-clock time needed to produce the estimate.

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{datasets_arg, f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::{zoo_for_task, Transformation};

fn main() {
    let (scale, [datasets]) = parse_args([("datasets", "cifar10,cifar100")]);
    let datasets = datasets_arg(&datasets, false);
    let mut table = ResultsTable::new(
        "fig12_selection_strategies",
        &["dataset", "batch_fraction", "strategy", "ber_estimate", "simulated_seconds", "wall_clock_seconds"],
    );
    for name in datasets.iter().map(|spec| spec.name) {
        let task = load_with_noise(name, scale, &NoiseModel::Clean, 21);
        let zoo = zoo_for_task(&task, 21);
        for &batch_fraction in &[0.01f64, 0.02, 0.05] {
            // The "perfect" lower bound: run only the transformation that the
            // exhaustive study would pick.
            let exhaustive = FeasibilityStudy::new(
                SnoopyConfig::with_target(0.9)
                    .strategy(SelectionStrategy::Exhaustive)
                    .batch_fraction(batch_fraction),
            )
            .run(&task, &zoo);
            let best_only: Vec<Box<dyn Transformation>> = zoo_for_task(&task, 21)
                .into_iter()
                .filter(|t| t.name() == exhaustive.best_transformation)
                .collect();
            let perfect = FeasibilityStudy::new(
                SnoopyConfig::with_target(0.9)
                    .strategy(SelectionStrategy::Exhaustive)
                    .batch_fraction(batch_fraction),
            )
            .run(&task, &best_only);
            table.push(vec![
                name.into(),
                f4(batch_fraction),
                "perfect".into(),
                f4(perfect.ber_estimate),
                f4(perfect.simulated_cost_seconds),
                f4(perfect.wall_clock_seconds),
            ]);

            for strategy in [
                SelectionStrategy::Uniform,
                SelectionStrategy::SuccessiveHalving,
                SelectionStrategy::SuccessiveHalvingTangent,
                SelectionStrategy::Exhaustive,
            ] {
                let report = FeasibilityStudy::new(
                    SnoopyConfig::with_target(0.9).strategy(strategy).batch_fraction(batch_fraction),
                )
                .run(&task, &zoo);
                table.push(vec![
                    name.into(),
                    f4(batch_fraction),
                    strategy.name().into(),
                    f4(report.ber_estimate),
                    f4(report.simulated_cost_seconds),
                    f4(report.wall_clock_seconds),
                ]);
            }
        }
    }
    table.finish();
}
