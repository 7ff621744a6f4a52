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

/// The most pulls `strategy` may spend on `num_arms` arms of `len` losses
/// each: uniform allocation stays within the budget; a halving round over
/// `l` survivors gives each `max(1, budget / (l · rounds))` pulls, at most
/// `max(l, budget / rounds)` in all, and the last step tops the winner up
/// to the budget; exhausted arms take no pulls.
fn pull_bound(strategy: SelectionStrategy, num_arms: usize, len: usize, budget: usize) -> usize {
    let spent = match strategy {
        SelectionStrategy::Uniform => budget,
        SelectionStrategy::Exhaustive => num_arms * len,
        SelectionStrategy::SuccessiveHalving | SelectionStrategy::SuccessiveHalvingTangent => {
            let rounds = (num_arms as f64).log2().ceil() as usize;
            let (mut l, mut rounds_spent) = (num_arms, 0);
            for _ in 0..rounds {
                if l <= 1 {
                    break;
                }
                rounds_spent += l.max(budget / rounds);
                l = (l / 2).max(1);
            }
            rounds_spent.max(budget)
        }
    };
    spent.min(num_arms * len)
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

    /// Every strategy spends at most the pulls its budget rule allows
    /// ([`pull_bound`]), half the cases with a budget below
    /// `#arms × rounds`, where the halving floor overspends.
    #[test]
    fn budget_is_respected(
        asymptotes in prop::collection::vec(0.02f64..0.6, 2..12),
        len in 5usize..40,
        budget in 1usize..400,
        tight in (0u8..2).prop_map(|b| b == 1),
    ) {
        let num_arms = asymptotes.len();
        let rounds = (num_arms as f64).log2().ceil() as usize;
        let budget = if tight { 1 + budget % (num_arms * rounds) } else { budget };
        for strategy in [SelectionStrategy::Uniform, SelectionStrategy::SuccessiveHalving, SelectionStrategy::SuccessiveHalvingTangent] {
            let mut arms = convergent_arms(&asymptotes, len);
            let total: usize = run(strategy, &mut arms, budget).iter().sum();
            prop_assert!(total <= pull_bound(strategy, num_arms, len, budget),
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

/// The halving floor's fixed counterexample to a budget cap: 9 arms at
/// budget 9 run ⌈log₂ 9⌉ = 4 rounds of one pull per survivor until one arm
/// is left, 9 + 4 + 2 = 15 pulls — exactly [`pull_bound`].
#[test]
fn halving_floor_overspends_a_tight_budget() {
    let asymptotes = [0.3, 0.1, 0.5, 0.2, 0.45, 0.05, 0.35, 0.25, 0.4];
    for strategy in [SelectionStrategy::SuccessiveHalving, SelectionStrategy::SuccessiveHalvingTangent] {
        let mut arms = convergent_arms(&asymptotes, 5);
        let total: usize = run(strategy, &mut arms, 9).iter().sum();
        assert_eq!(total, 15, "{}", strategy.name());
        assert_eq!(pull_bound(strategy, 9, 5, 9), 15);
    }
}
