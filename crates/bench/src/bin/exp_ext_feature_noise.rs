//! Extension experiment (beyond the paper's label-noise case study): the BER
//! estimate under *feature-side* data-quality issues — additive Gaussian
//! feature noise and missing features — demonstrating that the same
//! feasibility signal quantifies other data-quality dimensions, as Section
//! III-A anticipates.

use snoopy_bandit::SelectionStrategy;
use snoopy_bench::{f4, parse_args, ResultsTable};
use snoopy_core::{FeasibilityStudy, SnoopyConfig};
use snoopy_data::feature_noise::{apply_feature_noise, FeatureNoise};
use snoopy_data::registry::load_clean;
use snoopy_embeddings::zoo_for_task;

fn main() {
    let (scale, []) = parse_args([]);
    let mut table = ResultsTable::new(
        "ext_feature_noise",
        &["dataset", "corruption", "ber_estimate", "projected_accuracy", "decision_for_90pct_target"],
    );
    for name in ["cifar10", "imdb"] {
        let clean = load_clean(name, scale, 71);
        let corruptions: Vec<(String, Option<FeatureNoise>)> = vec![
            ("clean".into(), None),
            ("gaussian-0.5".into(), Some(FeatureNoise::Gaussian { relative_sigma: 0.5 })),
            ("gaussian-2.0".into(), Some(FeatureNoise::Gaussian { relative_sigma: 2.0 })),
            ("missing-0.3".into(), Some(FeatureNoise::MissingCompleteness { missing_rate: 0.3 })),
            ("missing-0.7".into(), Some(FeatureNoise::MissingCompleteness { missing_rate: 0.7 })),
        ];
        for (label, corruption) in corruptions {
            let mut task = clean.clone();
            if let Some(c) = &corruption {
                apply_feature_noise(&mut task, c, 72);
            }
            let zoo = zoo_for_task(&task, 71);
            let report = FeasibilityStudy::new(
                SnoopyConfig::with_target(0.90)
                    .strategy(SelectionStrategy::SuccessiveHalvingTangent)
                    .batch_fraction(0.1),
            )
            .run(&task, &zoo);
            table.push(vec![
                name.into(),
                label,
                f4(report.ber_estimate),
                f4(report.projected_accuracy),
                report.decision.name().into(),
            ]);
        }
    }
    table.finish();
}
