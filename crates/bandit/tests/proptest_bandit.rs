//! Property-based tests for the successive-halving scheduler.

use proptest::prelude::*;
use snoopy_bandit::{Arm, PrerecordedArm, SelectionStrategy, StrategyDriver};

/// Builds arms with monotonically decreasing, convex-ish curves converging to
/// the given asymptotes (the regime the tangent rule assumes).
fn convergent_arms(asymptotes: &[f64], len: usize) -> Vec<PrerecordedArm> {
    asymptotes
        .iter()
        .map(|&a| {
            PrerecordedArm::new((1..=len).map(|t| a + (0.95 - a) * (-(t as f64) / 5.0).exp()).collect())
        })
        .collect()
}

/// Steps a fresh driver dry and returns each arm's pull count.
fn run(strategy: SelectionStrategy, arms: &mut [PrerecordedArm], budget: usize) -> Vec<usize> {
    let mut driver = StrategyDriver::new(strategy, arms.len(), budget);
    while driver.step(arms) {}
    arms.iter().map(Arm::pulls).collect()
}

/// The pulled arm with the lowest loss (ties to the earliest index): the arm
/// a study selects.
fn best_arm(arms: &[PrerecordedArm]) -> usize {
    (0..arms.len())
        .filter(|&i| arms[i].pulls() > 0)
        .min_by(|&a, &b| arms[a].current_loss().total_cmp(&arms[b].current_loss()))
        .expect("at least one arm was pulled")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every strategy respects the total pull budget (up to full exhaustion).
    #[test]
    fn budget_is_respected(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..12),
        len in 5usize..40,
        budget in 1usize..400,
    ) {
        for strategy in [SelectionStrategy::Uniform, SelectionStrategy::SuccessiveHalving, SelectionStrategy::SuccessiveHalvingTangent] {
            let mut arms = convergent_arms(&asymptotes, len);
            let total: usize = run(strategy, &mut arms, budget).iter().sum();
            let max_possible = asymptotes.len() * len;
            prop_assert!(total <= budget.max(asymptotes.len()).max(1).min(max_possible) + len,
                "{}: spent {} pulls with budget {budget}", strategy.name(), total);
        }
    }

    /// With a generous budget, successive halving (with or without tangents)
    /// selects the arm with the lowest asymptote, i.e. the same winner as
    /// exhausting everything.
    #[test]
    fn generous_budget_finds_the_true_winner(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..10),
        len in 10usize..40,
    ) {
        // Make the winner unique by construction.
        let mut asymptotes = asymptotes;
        let winner = asymptotes.len() / 2;
        asymptotes[winner] = 0.001;
        let budget = asymptotes.len() * len * 2;

        let mut reference = convergent_arms(&asymptotes, len);
        run(SelectionStrategy::Exhaustive, &mut reference, 0);
        prop_assert_eq!(best_arm(&reference), winner);

        for strategy in [SelectionStrategy::SuccessiveHalving, SelectionStrategy::SuccessiveHalvingTangent] {
            let mut arms = convergent_arms(&asymptotes, len);
            run(strategy, &mut arms, budget);
            prop_assert_eq!(best_arm(&arms), winner, "{}", strategy.name());
        }
    }

    /// The tangent variant never spends more pulls than plain successive
    /// halving and never changes the selected arm on convergent curves.
    #[test]
    fn tangent_is_a_pure_saving(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..12),
        len in 8usize..30,
        budget in 20usize..400,
    ) {
        let mut plain_arms = convergent_arms(&asymptotes, len);
        let plain: usize = run(SelectionStrategy::SuccessiveHalving, &mut plain_arms, budget).iter().sum();
        let mut tangent_arms = convergent_arms(&asymptotes, len);
        let tangent: usize = run(SelectionStrategy::SuccessiveHalvingTangent, &mut tangent_arms, budget).iter().sum();
        prop_assert!(tangent <= plain);
        prop_assert_eq!(best_arm(&tangent_arms), best_arm(&plain_arms));
    }

    /// Uniform allocation distributes pulls evenly (within one pull) among
    /// non-exhausted arms.
    #[test]
    fn uniform_allocation_is_even(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..10),
        budget in 1usize..200,
    ) {
        let len = 50usize;
        let mut arms = convergent_arms(&asymptotes, len);
        let pulls = run(SelectionStrategy::Uniform, &mut arms, budget);
        let max = pulls.iter().copied().max().unwrap_or(0);
        let min = pulls.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1, "pulls {:?}", pulls);
    }

    /// The arm with the minimum loss (the study's aggregate) is the one the
    /// schedule ends on: on convergent curves the last survivor beats every
    /// eliminated arm, and it received at least as many pulls as any of them.
    #[test]
    fn min_loss_is_the_minimum(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..10),
        budget in 30usize..300,
    ) {
        let mut arms = convergent_arms(&asymptotes, 25);
        let pulls = run(SelectionStrategy::SuccessiveHalvingTangent, &mut arms, budget);
        let best = best_arm(&arms);
        prop_assert!(pulls.iter().all(|&n| n <= pulls[best]), "pulls {:?}, best {}", pulls, best);
    }
}
