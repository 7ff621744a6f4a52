//! Selection strategies: uniform allocation, exhaustive evaluation, and
//! successive halving with and without tangent-based early stopping
//! (Algorithms 1 and 2 of the paper's appendix).
//!
//! Every strategy runs through one [`StrategyDriver`], a resumable state
//! machine whose [`StrategyDriver::step`] plans one phase of pulls (how many
//! pulls each arm gets), runs it, and folds the outcome back in. A
//! feasibility study steps its driver until it is done; the multi-study
//! feasibility service steps one driver per tenant, one pool task per tenant
//! per round, and gets bit-identical schedules because each driver's
//! decisions depend only on its own arms.
//!
//! Arms are independent — pulling one never touches another — so a phase
//! runs its busy arms as one task each on the persistent [`snoopy_pool`]
//! work-stealing pool. Scheduling decisions (thresholds, eliminations,
//! survivor ranking) stay on the stepping thread, and each arm's own pull
//! sequence is identical to the sequential schedule, so outcomes are
//! deterministic and unchanged at every pool worker count.

use crate::arm::Arm;

/// Which scheduler to use when evaluating the transformation zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Spend the budget evenly across all arms.
    Uniform,
    /// Classic successive halving (Algorithm 1).
    SuccessiveHalving,
    /// Successive halving with tangent breaks (Algorithm 2, the paper's
    /// improved variant).
    SuccessiveHalvingTangent,
    /// Exhaust every arm completely (the naive baseline; also used when the
    /// caller wants full convergence curves for every transformation).
    Exhaustive,
}

impl SelectionStrategy {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionStrategy::Uniform => "uniform",
            SelectionStrategy::SuccessiveHalving => "successive-halving",
            SelectionStrategy::SuccessiveHalvingTangent => "successive-halving-tangent",
            SelectionStrategy::Exhaustive => "exhaustive",
        }
    }
}

/// Job size meaning "pull until the arm is exhausted".
const UNTIL_EXHAUSTED: usize = usize::MAX;

/// Pulls arm `i` up to `jobs[i]` times (0 skips the arm), stopping early at
/// exhaustion and, when a tangent `threshold` is given, at a tangent break
/// (Algorithm 2): after every pull the line through the arm's last two
/// losses is extrapolated to the end of the phase, and the arm stops if even
/// that optimistic endpoint is worse than `threshold`.
///
/// Each busy arm runs as one task on the current [`snoopy_pool`] pool — a
/// queue push, not a thread spawn — and a phase with a single busy arm runs
/// inline, skipping even that. Parallel work inside a pull (an arm's engine
/// scan) splits over the same pool's workers like any other call, so its
/// chunks queue behind the other arms' instead of oversubscribing the
/// machine.
fn execute_round<A: Arm>(arms: &mut [A], jobs: &[usize], threshold: Option<f64>) {
    let run_one = |arm: &mut A, job: usize| {
        let mut prev = arm.current_loss();
        let mut done = 0usize;
        while done < job && !arm.exhausted() {
            let last = arm.pull();
            done += 1;
            if let Some(threshold) = threshold {
                // The slope per pull is negative for an improving arm; a
                // worsening arm is extrapolated flat.
                let predicted_end = last + (last - prev).min(0.0) * (job - done) as f64;
                if arm.pulls() >= 2 && predicted_end > threshold {
                    break;
                }
            }
            prev = last;
        }
    };
    let busy: Vec<_> = arms.iter_mut().zip(jobs).filter(|(arm, &job)| job > 0 && !arm.exhausted()).collect();
    if busy.len() <= 1 {
        for (arm, &job) in busy {
            run_one(arm, job);
        }
    } else {
        snoopy_pool::scope(|scope| {
            for (arm, &job) in busy {
                scope.spawn(move || run_one(arm, job));
            }
        });
    }
}

/// Where a driver stands between two steps.
enum DriverState {
    /// Uniform sweeps, `spent` pulls handed out so far.
    Uniform {
        spent: usize,
    },
    Exhaustive,
    /// Successive halving in `round` of `rounds` over the ranked `survivors`;
    /// `threshold` is the worst loss of the round's first half once that
    /// half ran, `None` before.
    Halving {
        use_tangent: bool,
        rounds: usize,
        round: usize,
        survivors: Vec<usize>,
        threshold: Option<f64>,
    },
    Done,
}

/// A resumable, phase-stepped selection strategy over one arm set.
///
/// Call [`StrategyDriver::step`] with the same arms, in the same order,
/// until it returns `false`. A feasibility study does exactly that on one
/// arm set; the multi-study feasibility service steps one driver per
/// tenant, interleaving their phases round-robin on the shared pool.
///
/// Uniform allocation spends at most `budget` pulls. Successive halving
/// runs `rounds = ⌈log₂ #arms⌉` rounds and gives each of a round's `l`
/// survivors `max(1, budget / (l · rounds))` pulls. The floor of one pull
/// keeps every survivor moving, so each round spends at most
/// `max(l, budget / rounds)` pulls, and a budget below `#arms × rounds` is
/// overspent: 9 arms at budget 9 take 9 + 4 + 2 = 15 pulls. When the rounds
/// spent less than the budget, the last step tops the winner up to it.
/// Exhausted arms take no pulls, so no strategy spends more than the arms
/// hold.
pub struct StrategyDriver {
    budget: usize,
    state: DriverState,
}

impl StrategyDriver {
    /// A driver for `strategy` over `num_arms` arms with a total pull
    /// `budget` (ignored by [`SelectionStrategy::Exhaustive`]).
    pub fn new(strategy: SelectionStrategy, num_arms: usize, budget: usize) -> Self {
        let halving = |use_tangent| DriverState::Halving {
            use_tangent,
            rounds: (num_arms as f64).log2().ceil() as usize,
            round: 0,
            survivors: (0..num_arms).collect(),
            threshold: None,
        };
        let state = match strategy {
            SelectionStrategy::Uniform => DriverState::Uniform { spent: 0 },
            SelectionStrategy::Exhaustive => DriverState::Exhaustive,
            SelectionStrategy::SuccessiveHalving => halving(false),
            SelectionStrategy::SuccessiveHalvingTangent => halving(true),
        };
        Self { budget, state }
    }

    /// Plans the strategy's next phase of pulls, runs it over `arms`, and
    /// folds the outcome back in. Returns `false`, pulling nothing, once the
    /// strategy is done.
    ///
    /// A uniform step hands one pull to every arm still running (in index
    /// order when the remaining budget cannot cover the sweep); an
    /// exhaustive step pulls every arm dry. A successive-halving round takes
    /// two steps: the first half of the ranked survivors is pulled in full,
    /// then the second half against the first half's worst loss (with
    /// tangent breaks, if enabled), after which the better half survives.
    /// A last step spends the leftover budget on the single survivor.
    pub fn step<A: Arm>(&mut self, arms: &mut [A]) -> bool {
        let budget = self.budget;
        let mut jobs = vec![0usize; arms.len()];
        match &mut self.state {
            DriverState::Done => return false,
            DriverState::Exhaustive => {
                jobs.fill(UNTIL_EXHAUSTED);
                self.state = DriverState::Done;
                execute_round(arms, &jobs, None);
            }
            DriverState::Uniform { spent } => {
                let mut allocated = 0usize;
                for (job, arm) in jobs.iter_mut().zip(arms.iter()) {
                    if *spent + allocated >= budget {
                        break;
                    }
                    if !arm.exhausted() {
                        *job = 1;
                        allocated += 1;
                    }
                }
                if allocated == 0 {
                    self.state = DriverState::Done;
                    return false;
                }
                *spent += allocated;
                execute_round(arms, &jobs, None);
            }
            DriverState::Halving { use_tangent, rounds, round, survivors, threshold } => {
                let l = survivors.len();
                if *round >= *rounds || l <= 1 {
                    // Spend any leftover capacity on the single survivor so
                    // its curve is as long as the budget allows (matches how
                    // Snoopy finishes the minimum transformation to full
                    // convergence).
                    let Some(&winner) = survivors.first() else {
                        self.state = DriverState::Done;
                        return false;
                    };
                    let spent: usize = arms.iter().map(|a| a.pulls()).sum();
                    jobs[winner] = budget.saturating_sub(spent);
                    self.state = DriverState::Done;
                    execute_round(arms, &jobs, None);
                    return true;
                }
                let rk = (budget / (l * *rounds)).max(1);
                let cutoff = (l / 2).max(1);
                match threshold.take() {
                    None => {
                        for &idx in &survivors[..cutoff] {
                            jobs[idx] = rk;
                        }
                        execute_round(arms, &jobs, None);
                        *threshold = Some(
                            survivors[..cutoff]
                                .iter()
                                .fold(f64::NEG_INFINITY, |t, &idx| t.max(arms[idx].current_loss())),
                        );
                    }
                    Some(t) => {
                        for &idx in &survivors[cutoff..] {
                            jobs[idx] = rk;
                        }
                        execute_round(arms, &jobs, use_tangent.then_some(t));
                        // Keep the better half by current loss (ties by
                        // index, deterministic). An arm the tangent break
                        // stopped ends above the threshold, so the first
                        // half alone outranks it and the cut drops it.
                        survivors.sort_by(|&a, &b| {
                            arms[a].current_loss().total_cmp(&arms[b].current_loss()).then_with(|| a.cmp(&b))
                        });
                        survivors.truncate(cutoff);
                        *round += 1;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::PrerecordedArm;

    /// Arms with geometric convergence to distinct asymptotes; lower
    /// `asymptote` means a better arm.
    fn synthetic_arms(asymptotes: &[f64], len: usize) -> Vec<PrerecordedArm> {
        asymptotes
            .iter()
            .map(|&a| {
                PrerecordedArm::new((1..=len).map(|t| a + (0.9 - a) * (-(t as f64) / 6.0).exp()).collect())
            })
            .collect()
    }

    /// Steps a fresh driver dry and returns each arm's pull count.
    fn run(strategy: SelectionStrategy, arms: &mut [PrerecordedArm], budget: usize) -> Vec<usize> {
        let mut driver = StrategyDriver::new(strategy, arms.len(), budget);
        while driver.step(arms) {}
        arms.iter().map(Arm::pulls).collect()
    }

    /// The pulled arm with the lowest loss (ties to the earliest index): the
    /// arm a study selects.
    fn best_arm(arms: &[PrerecordedArm]) -> usize {
        (0..arms.len())
            .filter(|&i| arms[i].pulls() > 0)
            .min_by(|&a, &b| arms[a].current_loss().total_cmp(&arms[b].current_loss()))
            .expect("at least one arm was pulled")
    }

    #[test]
    fn schedule_is_pinned_for_every_strategy() {
        // Arm 2 is short, so sweeps skip it once exhausted. Arms 3 and 4 tie
        // at the first halving cut, which keeps the lower index. Arms 3 and 5
        // meet the tangent break in the same phase: arm 5 on its first pull,
        // whose slope extrapolates to just above the threshold, and the
        // zigzagging arm 3 on its third, after a rise that stayed under the
        // threshold only because a rising slope is extrapolated flat.
        let curves: [&[f64]; 6] = [
            &[0.90, 0.70, 0.55, 0.45, 0.40, 0.37, 0.35, 0.34, 0.335, 0.33],
            &[0.80, 0.55, 0.40, 0.30, 0.22, 0.17, 0.14, 0.12, 0.11, 0.105],
            &[0.70, 0.65, 0.62],
            &[0.85, 0.60, 0.15, 0.16, 0.18, 0.12, 0.11, 0.10, 0.09, 0.08],
            &[0.95, 0.60, 0.55, 0.50, 0.43, 0.38, 0.34, 0.31, 0.29, 0.28],
            &[0.60, 0.58, 0.49, 0.47, 0.46, 0.45, 0.44, 0.43, 0.42, 0.41],
        ];
        // Budget, pull counts, final-loss bits and the selected arm, recorded
        // from the one-shot scheduler this driver replaced. The uniform budget
        // of 21 ends mid-sweep, after arm 2 ran dry.
        type Pin = (SelectionStrategy, usize, [usize; 6], [u64; 6], usize);
        let pinned: [Pin; 4] = [
            (
                SelectionStrategy::Uniform,
                21,
                [4, 4, 3, 4, 3, 3],
                [
                    0x3fdccccccccccccd,
                    0x3fd3333333333333,
                    0x3fe3d70a3d70a3d7,
                    0x3fc47ae147ae147b,
                    0x3fe199999999999a,
                    0x3fdf5c28f5c28f5c,
                ],
                3,
            ),
            (
                SelectionStrategy::SuccessiveHalving,
                40,
                [2, 6, 2, 10, 2, 6],
                [
                    0x3fe6666666666666,
                    0x3fc5c28f5c28f5c3,
                    0x3fe4cccccccccccd,
                    0x3fb47ae147ae147b,
                    0x3fe3333333333333,
                    0x3fdccccccccccccd,
                ],
                3,
            ),
            (
                SelectionStrategy::SuccessiveHalvingTangent,
                40,
                [2, 10, 2, 5, 2, 3],
                [
                    0x3fe6666666666666,
                    0x3fbae147ae147ae1,
                    0x3fe4cccccccccccd,
                    0x3fc70a3d70a3d70a,
                    0x3fe3333333333333,
                    0x3fdf5c28f5c28f5c,
                ],
                1,
            ),
            (
                SelectionStrategy::Exhaustive,
                0,
                [10, 10, 3, 10, 10, 10],
                [
                    0x3fd51eb851eb851f,
                    0x3fbae147ae147ae1,
                    0x3fe3d70a3d70a3d7,
                    0x3fb47ae147ae147b,
                    0x3fd1eb851eb851ec,
                    0x3fda3d70a3d70a3d,
                ],
                3,
            ),
        ];
        for (strategy, budget, pulls, bits, best) in pinned {
            let mut arms: Vec<PrerecordedArm> =
                curves.iter().map(|c| PrerecordedArm::new(c.to_vec())).collect();
            assert_eq!(run(strategy, &mut arms, budget), pulls, "{}", strategy.name());
            let losses: Vec<u64> = arms.iter().map(|a| a.current_loss().to_bits()).collect();
            assert_eq!(losses, bits, "{}", strategy.name());
            assert_eq!(best_arm(&arms), best, "{}", strategy.name());
        }
    }

    #[test]
    fn exhaustive_finds_true_best_and_spends_everything() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5, 0.2], 20);
        let pulls = run(SelectionStrategy::Exhaustive, &mut arms, 0);
        assert_eq!(best_arm(&arms), 1);
        assert_eq!(pulls.iter().sum::<usize>(), 80);
    }

    #[test]
    fn uniform_allocation_respects_budget() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5, 0.2], 20);
        assert_eq!(run(SelectionStrategy::Uniform, &mut arms, 40), vec![10, 10, 10, 10]);
        assert_eq!(best_arm(&arms), 1);
    }

    #[test]
    fn uniform_allocation_partial_sweep_hands_pulls_in_index_order() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5], 20);
        assert_eq!(run(SelectionStrategy::Uniform, &mut arms, 7), vec![3, 2, 2]);
    }

    #[test]
    fn successive_halving_finds_best_arm_with_fewer_pulls() {
        let asymptotes = [0.45, 0.30, 0.10, 0.40, 0.35, 0.25, 0.50, 0.20];
        let len = 40;
        let budget = 8 * len; // enough to exhaust everything if spent naively
        let mut sh_arms = synthetic_arms(&asymptotes, len);
        let sh = run(SelectionStrategy::SuccessiveHalving, &mut sh_arms, budget / 2);
        assert_eq!(best_arm(&sh_arms), 2, "successive halving should identify the best arm");
        let mut uniform_arms = synthetic_arms(&asymptotes, len);
        let uniform = run(SelectionStrategy::Uniform, &mut uniform_arms, budget / 2);
        assert!(sh[2] >= uniform[2], "SH concentrates pulls on the winner");
        // SH spends strictly less than exhausting everything.
        assert!(sh.iter().sum::<usize>() < 8 * len);
    }

    #[test]
    fn tangent_variant_selects_the_same_arm_with_at_most_the_same_pulls() {
        let asymptotes = [0.45, 0.30, 0.10, 0.40, 0.35, 0.25, 0.50, 0.20];
        let len = 40;
        let budget = 4 * len;
        let mut plain_arms = synthetic_arms(&asymptotes, len);
        let plain: usize = run(SelectionStrategy::SuccessiveHalving, &mut plain_arms, budget).iter().sum();
        let mut tangent_arms = synthetic_arms(&asymptotes, len);
        let tangent: usize =
            run(SelectionStrategy::SuccessiveHalvingTangent, &mut tangent_arms, budget).iter().sum();
        assert_eq!(
            best_arm(&plain_arms),
            best_arm(&tangent_arms),
            "tangent breaks must not change the selection"
        );
        assert!(tangent <= plain, "tangent breaks should not spend more pulls ({tangent} vs {plain})");
    }

    #[test]
    fn single_arm_and_empty_inputs_are_handled() {
        let mut single = synthetic_arms(&[0.2], 10);
        assert_eq!(run(SelectionStrategy::SuccessiveHalvingTangent, &mut single, 100), vec![10]);
        assert_eq!(best_arm(&single), 0);
        let mut empty: Vec<PrerecordedArm> = vec![];
        assert!(!StrategyDriver::new(SelectionStrategy::SuccessiveHalving, 0, 10).step(&mut empty));
    }
}
