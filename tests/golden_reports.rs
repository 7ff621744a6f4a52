//! Golden feasibility reports: the decision, winning transformation and BER
//! estimate bits of a CLI-config study (target 0.9, successive halving with
//! tangents, 10 % batches, zoo seeded like the data) on every Table I replica
//! at `tiny` scale with 30 % uniform label noise and seed 1.
//!
//! The pins catch any movement of the zoo fit (covariance, eigensolver, PCA
//! projection), the kNN engine or the bandit that reaches a verdict. A change
//! that moves one must justify the new value and re-pin it; the failure
//! message prints every replica's current values in the table's format.

use snoopy::data::registry::{load_with_noise, SizeScale};
use snoopy::prelude::*;

/// `(replica, decision, winner, BER estimate as f64 bits)`.
const GOLDEN: [(&str, &str, &str, u64); 6] = [
    ("mnist", "UNREALISTIC", "alexnet", 0x3fc9f76a2a4ecafd),
    ("cifar10", "UNREALISTIC", "vgg19", 0x3fcd55c1e1f369a9),
    ("cifar100", "UNREALISTIC", "alexnet", 0x3fe3593c52ffcb74),
    ("imdb", "UNREALISTIC", "use-large", 0x3fc1d9545f643ce1),
    ("sst2", "REALISTIC", "bert-large-uncased", 0x3fb5de35b00a4330),
    ("yelp", "UNREALISTIC", "standardize", 0x3fe08c8d7099e814),
];

#[test]
fn cli_config_reports_match_the_pinned_values_on_every_table_one_replica() {
    let seed = 1;
    let actual: Vec<(&str, String, String, u64)> = GOLDEN
        .iter()
        .map(|&(name, ..)| {
            let task = load_with_noise(name, SizeScale::Tiny, &NoiseModel::Uniform(0.3), seed);
            let zoo = zoo_for_task(&task, seed);
            let report = FeasibilityStudy::new(SnoopyConfig::with_target(0.9)).run(&task, &zoo);
            (
                name,
                report.decision.name().to_string(),
                report.best_transformation,
                report.ber_estimate.to_bits(),
            )
        })
        .collect();
    let rendered: String = actual
        .iter()
        .map(|(name, decision, winner, bits)| {
            format!(
                "    ({name:?}, {decision:?}, {winner:?}, {bits:#018x}), // BER {}\n",
                f64::from_bits(*bits)
            )
        })
        .collect();
    for (golden, got) in GOLDEN.iter().zip(&actual) {
        let (name, decision, winner, bits) = *golden;
        assert!(
            (decision, winner, bits) == (got.1.as_str(), got.2.as_str(), got.3),
            "{name}: report moved from the pinned values; current values:\n{rendered}"
        );
    }
}
