//! Figure 6: the impact of fixing a single feature transformation instead of
//! taking the minimum over the zoo (IMDB and SST-2 analogues).

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::noise::NoiseModel;
use snoopy_data::registry::load_with_noise;
use snoopy_embeddings::zoo_for_task;

fn main() {
    let (scale, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "fig6_single_transformation_impact",
        &["dataset", "transformation", "ber_estimate", "gap_to_minimum", "gap_to_sota"],
    );
    for name in ["imdb", "sst2"] {
        let task = load_with_noise(name, scale, &NoiseModel::Clean, 42);
        let zoo = zoo_for_task(&task, 42);
        let report = FeasibilityStudy::new(
            SnoopyConfig::with_target(1.0 - task.meta.sota_error)
                .strategy(SelectionStrategy::Exhaustive)
                .batch_fraction(0.2),
        )
        .run(&task, &zoo);
        let minimum = report.ber_estimate;
        let mut rows: Vec<_> = report.per_transformation.iter().collect();
        rows.sort_by(|a, b| a.ber_estimate.total_cmp(&b.ber_estimate));
        for r in rows {
            table.push(vec![
                name.into(),
                r.name.clone(),
                f4(r.ber_estimate),
                f4(r.ber_estimate - minimum),
                f4(r.ber_estimate - task.meta.sota_error),
            ]);
        }
    }
    table.finish();
}
