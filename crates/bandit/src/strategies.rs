//! Selection strategies: uniform allocation and successive halving with and
//! without tangent-based early stopping (Algorithms 1 and 2 of the paper's
//! appendix), plus the doubling trick.
//!
//! Every strategy is expressed as a [`StrategyDriver`] — a resumable state
//! machine that emits one [`RoundPlan`] (how many pulls each arm gets this
//! phase) at a time and folds the executed phase back in. The one-shot
//! entry points ([`run_strategy`] and friends) just drive it to completion;
//! the multi-study feasibility service steps many drivers side by side,
//! interleaving their rounds fairly on the shared pool.
//!
//! Arms are independent — pulling one never touches another — so
//! [`execute_round`] runs a phase's busy arms as one task each on the
//! persistent [`snoopy_pool`] work-stealing pool. Scheduling decisions
//! (thresholds, eliminations, survivor ranking) stay on the calling thread,
//! and each arm's own pull sequence is identical to the sequential
//! schedule, so outcomes are deterministic and unchanged at every pool
//! worker count.

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

/// The result of running a selection strategy over a set of arms.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Index of the selected (best) arm.
    pub best_arm: usize,
    /// Final loss of the selected arm.
    pub best_loss: f64,
    /// Total number of pulls spent across all arms.
    pub total_pulls: usize,
    /// Total simulated cost accumulated across all arms.
    pub total_cost: f64,
    /// Per-arm loss histories: `curves[i][j]` is arm `i`'s loss after its
    /// `j+1`-th pull.
    pub curves: Vec<Vec<f64>>,
    /// Number of pulls spent on each arm.
    pub pulls_per_arm: Vec<usize>,
}

impl SelectionOutcome {
    /// Assembles the outcome from recorded curves and the arms' own pull and
    /// cost ledgers — what the one-shot entry points return, and what the
    /// feasibility service builds after stepping a [`StrategyDriver`] dry.
    pub fn from_state<A: Arm>(curves: Vec<Vec<f64>>, arms: &[A]) -> Self {
        let pulls_per_arm: Vec<usize> = arms.iter().map(|a| a.pulls()).collect();
        let total_pulls = pulls_per_arm.iter().sum();
        let total_cost = arms.iter().map(|a| a.accumulated_cost()).sum();
        // The best arm is the one with the lowest recorded loss (ties resolve
        // to the earliest index, matching `min` over estimators).
        let mut best_arm = 0usize;
        let mut best_loss = f64::INFINITY;
        for (i, curve) in curves.iter().enumerate() {
            let last = curve.last().copied().unwrap_or(f64::INFINITY);
            if last < best_loss {
                best_loss = last;
                best_arm = i;
            }
        }
        Self { best_arm, best_loss, total_pulls, total_cost, curves, pulls_per_arm }
    }

    /// The minimum loss observed across all arms (Snoopy's aggregate).
    pub fn min_loss(&self) -> f64 {
        self.curves.iter().filter_map(|c| c.last()).fold(f64::INFINITY, |a, &b| a.min(b))
    }
}

/// Job size meaning "pull until the arm is exhausted".
const UNTIL_EXHAUSTED: usize = usize::MAX;

/// One phase of scheduled pulls, as decided by a [`StrategyDriver`]: arm `i`
/// receives up to `jobs[i]` pulls (0 skips the arm).
#[derive(Debug, Clone)]
pub struct RoundPlan {
    /// Pulls allotted to each arm this phase.
    pub jobs: Vec<usize>,
    /// `Some(threshold)` switches the phase to the tangent-break pull loop
    /// of Algorithm 2: after every pull the line through the last two
    /// observed losses is extrapolated to the end of the phase, and the arm
    /// stops early — reported as eliminated — if even that optimistic
    /// endpoint is worse than `threshold`.
    pub tangent_threshold: Option<f64>,
}

impl RoundPlan {
    fn plain(jobs: Vec<usize>) -> Self {
        Self { jobs, tangent_threshold: None }
    }
}

/// Executes one phase: arm `i` is pulled up to `plan.jobs[i]` times
/// (stopping early at exhaustion, and at a tangent break when the plan
/// carries a threshold), its observed losses appended to `curves[i]`.
/// Returns which arms the tangent break eliminated (all `false` for plain
/// phases).
///
/// Each busy arm runs as one task on the current [`snoopy_pool`] pool — a
/// queue push, not a thread spawn — and a phase with a single busy arm runs
/// inline, skipping even that. Parallel work inside a pull (an arm's engine
/// scan) splits over the same pool's workers like any other call, so its
/// chunks queue behind the other arms' instead of oversubscribing the
/// machine. Each arm's own pull sequence is identical to the sequential
/// schedule, so outcomes are deterministic and unchanged at every pool
/// worker count.
pub fn execute_round<A: Arm>(arms: &mut [A], curves: &mut [Vec<f64>], plan: &RoundPlan) -> Vec<bool> {
    let n = arms.len();
    assert_eq!(plan.jobs.len(), n, "one job count per arm required");
    assert_eq!(curves.len(), n, "one curve per arm required");
    let mut eliminated = vec![false; n];
    let busy = arms.iter().zip(&plan.jobs).filter(|(arm, &job)| job > 0 && !arm.exhausted()).count();
    if busy == 0 {
        return eliminated;
    }
    let threshold = plan.tangent_threshold;
    let run_one = |arm: &mut A, curve: &mut Vec<f64>, job: usize, eliminated: &mut bool| {
        let mut done = 0usize;
        while done < job && !arm.exhausted() {
            curve.push(arm.pull());
            done = done.saturating_add(1);
            if let Some(threshold) = threshold {
                if curve.len() >= 2 {
                    let last = curve[curve.len() - 1];
                    let prev = curve[curve.len() - 2];
                    let slope = last - prev; // per pull; negative for improving arms
                    let remaining = (job - done) as f64;
                    let predicted_end = last + slope.min(0.0) * remaining;
                    if predicted_end > threshold {
                        *eliminated = true;
                        break;
                    }
                }
            }
        }
    };
    if busy == 1 {
        for ((arm, (curve, elim)), &job) in
            arms.iter_mut().zip(curves.iter_mut().zip(eliminated.iter_mut())).zip(&plan.jobs)
        {
            if job > 0 && !arm.exhausted() {
                run_one(arm, curve, job, elim);
            }
        }
        return eliminated;
    }
    snoopy_pool::scope(|scope| {
        for ((arm, (curve, elim)), &job) in
            arms.iter_mut().zip(curves.iter_mut().zip(eliminated.iter_mut())).zip(&plan.jobs)
        {
            if job == 0 || arm.exhausted() {
                continue;
            }
            scope.spawn(move || run_one(arm, curve, job, elim));
        }
    });
    eliminated
}

/// Where a successive-halving driver stands: each `Select*` state emits one
/// plan, each `Observe*` state absorbs the executed plan's outcome.
enum HalvingPhase {
    SelectFirstHalf,
    ObserveFirstHalf { rk: usize },
    SelectSecondHalf { rk: usize, threshold: f64 },
    ObserveSecondHalf,
    Finishing,
}

enum DriverState {
    Uniform { spent: usize },
    Exhaustive,
    Halving { use_tangent: bool, rounds: usize, round: usize, survivors: Vec<usize>, phase: HalvingPhase },
    Done,
}

/// A resumable, phase-stepped view of a selection strategy.
///
/// Call [`StrategyDriver::next_plan`] for the next phase of pulls, execute
/// it (normally via [`execute_round`]), then feed the outcome back through
/// [`StrategyDriver::observe`] — strictly alternating. [`run_strategy`] is
/// exactly this loop run to completion on one arm set; the multi-study
/// feasibility service steps one driver per tenant, interleaving their
/// phases round-robin on the shared pool, and gets bit-identical schedules
/// because each driver's decisions depend only on its own arms.
pub struct StrategyDriver {
    budget: usize,
    state: DriverState,
}

impl StrategyDriver {
    /// A driver for `strategy` over `num_arms` arms with a total pull
    /// `budget` (ignored by [`SelectionStrategy::Exhaustive`]).
    pub fn new(strategy: SelectionStrategy, num_arms: usize, budget: usize) -> Self {
        match strategy {
            SelectionStrategy::Uniform => Self { budget, state: DriverState::Uniform { spent: 0 } },
            SelectionStrategy::Exhaustive => Self { budget, state: DriverState::Exhaustive },
            SelectionStrategy::SuccessiveHalving => Self::halving(num_arms, budget, false),
            SelectionStrategy::SuccessiveHalvingTangent => Self::halving(num_arms, budget, true),
        }
    }

    /// A successive-halving driver with an explicit tangent-break switch.
    pub fn halving(num_arms: usize, budget: usize, use_tangent: bool) -> Self {
        if num_arms == 0 {
            return Self { budget, state: DriverState::Done };
        }
        let rounds = (num_arms as f64).log2().ceil() as usize;
        Self {
            budget,
            state: DriverState::Halving {
                use_tangent,
                rounds,
                round: 0,
                survivors: (0..num_arms).collect(),
                phase: HalvingPhase::SelectFirstHalf,
            },
        }
    }

    /// The next phase of pulls, or `None` once the strategy is exhausted.
    /// Every returned plan must be executed and reported back via
    /// [`StrategyDriver::observe`] before the next call.
    ///
    /// # Panics
    /// Panics if the previous plan was not yet observed.
    pub fn next_plan<A: Arm>(&mut self, arms: &[A]) -> Option<RoundPlan> {
        let budget = self.budget;
        match &mut self.state {
            DriverState::Done => None,
            DriverState::Exhaustive => {
                self.state = DriverState::Done;
                Some(RoundPlan::plain(vec![UNTIL_EXHAUSTED; arms.len()]))
            }
            DriverState::Uniform { spent } => {
                // One sweep: a single pull to every still-running arm, in
                // index order when the remaining budget cannot cover all.
                let mut jobs = vec![0usize; arms.len()];
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
                    return None;
                }
                *spent += allocated;
                Some(RoundPlan::plain(jobs))
            }
            DriverState::Halving { use_tangent, rounds, round, survivors, phase } => loop {
                match phase {
                    HalvingPhase::SelectFirstHalf => {
                        let l = survivors.len();
                        if *round >= *rounds || l <= 1 {
                            *phase = HalvingPhase::Finishing;
                            continue;
                        }
                        // First half of the survivor list is always pulled
                        // in full; its worst loss defines the threshold for
                        // the tangent breaks (Algorithm 1).
                        let rk = (budget / (l * *rounds)).max(1);
                        let cutoff = (l / 2).max(1);
                        let mut jobs = vec![0usize; arms.len()];
                        for &idx in survivors.iter().take(cutoff) {
                            jobs[idx] = rk;
                        }
                        *phase = HalvingPhase::ObserveFirstHalf { rk };
                        return Some(RoundPlan::plain(jobs));
                    }
                    HalvingPhase::SelectSecondHalf { rk, threshold } => {
                        let cutoff = (survivors.len() / 2).max(1);
                        let mut jobs = vec![0usize; arms.len()];
                        for &idx in survivors.iter().skip(cutoff) {
                            jobs[idx] = *rk;
                        }
                        let tangent_threshold = use_tangent.then_some(*threshold);
                        *phase = HalvingPhase::ObserveSecondHalf;
                        return Some(RoundPlan { jobs, tangent_threshold });
                    }
                    HalvingPhase::Finishing => {
                        // Spend any leftover capacity on the single survivor
                        // so its curve is as long as the budget allows
                        // (matches how Snoopy finishes the minimum
                        // transformation to full convergence).
                        let Some(&winner) = survivors.first() else {
                            self.state = DriverState::Done;
                            return None;
                        };
                        let spent: usize = arms.iter().map(|a| a.pulls()).sum();
                        let mut jobs = vec![0usize; arms.len()];
                        jobs[winner] = budget.saturating_sub(spent);
                        self.state = DriverState::Done;
                        return Some(RoundPlan::plain(jobs));
                    }
                    HalvingPhase::ObserveFirstHalf { .. } | HalvingPhase::ObserveSecondHalf => {
                        panic!("next_plan called before the previous plan was observed");
                    }
                }
            },
        }
    }

    /// Folds the executed phase back in: records the tangent threshold after
    /// a first half, or eliminates and re-ranks survivors after a second
    /// half (`eliminated` as returned by [`execute_round`]). A no-op for
    /// phases that carry no scheduling state (uniform sweeps, the tail).
    pub fn observe<A: Arm>(&mut self, arms: &[A], eliminated: &[bool]) {
        if let DriverState::Halving { round, survivors, phase, .. } = &mut self.state {
            match phase {
                HalvingPhase::ObserveFirstHalf { rk } => {
                    let cutoff = (survivors.len() / 2).max(1);
                    let mut threshold = f64::NEG_INFINITY;
                    for &idx in survivors.iter().take(cutoff) {
                        threshold = threshold.max(arms[idx].current_loss());
                    }
                    *phase = HalvingPhase::SelectSecondHalf { rk: *rk, threshold };
                }
                HalvingPhase::ObserveSecondHalf => {
                    // Keep the better half by current loss (ties by index,
                    // deterministic), minus anything the tangent killed.
                    let l = survivors.len();
                    survivors.retain(|&idx| !eliminated[idx]);
                    survivors.sort_by(|&a, &b| {
                        arms[a].current_loss().total_cmp(&arms[b].current_loss()).then_with(|| a.cmp(&b))
                    });
                    survivors.truncate((l / 2).max(1));
                    *round += 1;
                    *phase = HalvingPhase::SelectFirstHalf;
                }
                _ => {}
            }
        }
    }
}

/// Drives `driver` dry over `arms` and assembles the outcome.
fn drive<A: Arm>(mut driver: StrategyDriver, arms: &mut [A]) -> SelectionOutcome {
    let mut curves = vec![Vec::new(); arms.len()];
    while let Some(plan) = driver.next_plan(arms) {
        let eliminated = execute_round(arms, &mut curves, &plan);
        driver.observe(arms, &eliminated);
    }
    SelectionOutcome::from_state(curves, arms)
}

/// Runs the given strategy with a total pull budget. For
/// [`SelectionStrategy::Exhaustive`] the budget is ignored and every arm is
/// pulled until exhaustion.
pub fn run_strategy<A: Arm>(strategy: SelectionStrategy, arms: &mut [A], budget: usize) -> SelectionOutcome {
    drive(StrategyDriver::new(strategy, arms.len(), budget), arms)
}

/// Pulls every arm until it is exhausted, all arms in parallel.
pub fn exhaust_all<A: Arm>(arms: &mut [A]) -> SelectionOutcome {
    drive(StrategyDriver::new(SelectionStrategy::Exhaustive, arms.len(), 0), arms)
}

/// Uniform allocation baseline: round-robin single pulls until the budget is
/// spent or every arm is exhausted. Each sweep hands one pull to every
/// still-running arm (in index order when the remaining budget cannot cover
/// the full sweep) and executes the sweep's pulls in parallel on the shared
/// pool.
pub fn uniform_allocation<A: Arm>(arms: &mut [A], budget: usize) -> SelectionOutcome {
    drive(StrategyDriver::new(SelectionStrategy::Uniform, arms.len(), budget), arms)
}

/// Successive halving (Algorithm 1), optionally with tangent breaks
/// (Algorithm 2 via `use_tangent = true`).
///
/// The budget `B` is the total number of pulls the scheduler may spend. Arms
/// eliminated in earlier rounds keep their recorded curves, so the caller can
/// still aggregate by taking the minimum over everything observed. Within a
/// round, the surviving arms evaluate concurrently on the shared pool.
pub fn successive_halving<A: Arm>(arms: &mut [A], budget: usize, use_tangent: bool) -> SelectionOutcome {
    drive(StrategyDriver::halving(arms.len(), budget, use_tangent), arms)
}

/// The doubling trick (Jamieson & Talwalkar, §3): run successive halving with
/// budgets `B, 2B, 4B, …` on fresh arms produced by `make_arms` until the
/// selected arm's underlying data is exhausted or `max_doublings` is reached.
/// Returns the outcome of the final run together with the cumulative pull
/// count across all runs.
pub fn doubling_successive_halving<A: Arm>(
    mut make_arms: impl FnMut() -> Vec<A>,
    initial_budget: usize,
    use_tangent: bool,
    max_doublings: usize,
) -> (SelectionOutcome, usize) {
    let mut budget = initial_budget.max(1);
    let mut cumulative_pulls = 0usize;
    let mut last_outcome = None;
    for _ in 0..=max_doublings {
        let mut arms = make_arms();
        let outcome = successive_halving(&mut arms, budget, use_tangent);
        cumulative_pulls += outcome.total_pulls;
        let winner_exhausted = arms[outcome.best_arm].exhausted();
        last_outcome = Some(outcome);
        if winner_exhausted {
            break;
        }
        budget *= 2;
    }
    (last_outcome.expect("at least one successive-halving run"), cumulative_pulls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::PrerecordedArm;

    /// Arms with geometric convergence to distinct asymptotes; lower
    /// `asymptote` means a better arm.
    fn synthetic_arms(asymptotes: &[f64], len: usize) -> Vec<Box<dyn Arm>> {
        asymptotes
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let curve: Vec<f64> = (1..=len).map(|t| a + (0.9 - a) * (-(t as f64) / 6.0).exp()).collect();
                Box::new(PrerecordedArm::new(&format!("arm{i}"), curve)) as Box<dyn Arm>
            })
            .collect()
    }

    #[test]
    fn exhaustive_finds_true_best_and_spends_everything() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5, 0.2], 20);
        let outcome = exhaust_all(&mut arms);
        assert_eq!(outcome.best_arm, 1);
        assert_eq!(outcome.total_pulls, 80);
        assert!((outcome.min_loss() - outcome.best_loss).abs() < 1e-12);
    }

    #[test]
    fn uniform_allocation_respects_budget() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5, 0.2], 20);
        let outcome = uniform_allocation(&mut arms, 40);
        assert_eq!(outcome.total_pulls, 40);
        assert_eq!(outcome.pulls_per_arm, vec![10, 10, 10, 10]);
        assert_eq!(outcome.best_arm, 1);
    }

    #[test]
    fn uniform_allocation_partial_sweep_hands_pulls_in_index_order() {
        let mut arms = synthetic_arms(&[0.3, 0.1, 0.5], 20);
        let outcome = uniform_allocation(&mut arms, 7);
        assert_eq!(outcome.total_pulls, 7);
        assert_eq!(outcome.pulls_per_arm, vec![3, 2, 2]);
    }

    #[test]
    fn successive_halving_finds_best_arm_with_fewer_pulls() {
        let asymptotes = [0.45, 0.30, 0.10, 0.40, 0.35, 0.25, 0.50, 0.20];
        let len = 40;
        let budget = 8 * len; // enough to exhaust everything if spent naively
        let mut sh_arms = synthetic_arms(&asymptotes, len);
        let sh = successive_halving(&mut sh_arms, budget / 2, false);
        assert_eq!(sh.best_arm, 2, "successive halving should identify the best arm");
        let mut uniform_arms = synthetic_arms(&asymptotes, len);
        let uniform = uniform_allocation(&mut uniform_arms, budget / 2);
        assert!(sh.pulls_per_arm[2] >= uniform.pulls_per_arm[2], "SH concentrates pulls on the winner");
        // SH spends strictly less than exhausting everything.
        assert!(sh.total_pulls < 8 * len);
    }

    #[test]
    fn tangent_variant_selects_the_same_arm_with_at_most_the_same_pulls() {
        let asymptotes = [0.45, 0.30, 0.10, 0.40, 0.35, 0.25, 0.50, 0.20];
        let len = 40;
        let budget = 4 * len;
        let mut plain_arms = synthetic_arms(&asymptotes, len);
        let plain = successive_halving(&mut plain_arms, budget, false);
        let mut tangent_arms = synthetic_arms(&asymptotes, len);
        let tangent = successive_halving(&mut tangent_arms, budget, true);
        assert_eq!(plain.best_arm, tangent.best_arm, "tangent breaks must not change the selection");
        assert!(
            tangent.total_pulls <= plain.total_pulls,
            "tangent breaks should not spend more pulls ({} vs {})",
            tangent.total_pulls,
            plain.total_pulls
        );
    }

    #[test]
    fn single_arm_and_empty_inputs_are_handled() {
        let mut single = synthetic_arms(&[0.2], 10);
        let outcome = successive_halving(&mut single, 100, true);
        assert_eq!(outcome.best_arm, 0);
        assert_eq!(outcome.total_pulls, 10);
        let mut empty: Vec<Box<dyn Arm>> = vec![];
        let outcome = successive_halving(&mut empty, 10, false);
        assert_eq!(outcome.total_pulls, 0);
    }

    #[test]
    fn run_strategy_dispatches() {
        for strategy in [
            SelectionStrategy::Uniform,
            SelectionStrategy::SuccessiveHalving,
            SelectionStrategy::SuccessiveHalvingTangent,
            SelectionStrategy::Exhaustive,
        ] {
            let mut arms = synthetic_arms(&[0.4, 0.1, 0.3], 15);
            let outcome = run_strategy(strategy, &mut arms, 30);
            assert_eq!(outcome.best_arm, 1, "{}", strategy.name());
            assert!(!strategy.name().is_empty());
        }
    }

    #[test]
    fn doubling_trick_eventually_exhausts_the_winner() {
        let asymptotes = [0.4, 0.1, 0.3, 0.2];
        let len = 16;
        let (outcome, cumulative) =
            doubling_successive_halving(|| synthetic_arms(&asymptotes, len), 4, true, 12);
        assert_eq!(outcome.best_arm, 1);
        assert!(outcome.pulls_per_arm[1] >= len, "winner should be fully exhausted");
        assert!(cumulative >= outcome.total_pulls);
    }

    #[test]
    fn cost_accounting_uses_per_pull_costs() {
        let mut arms: Vec<Box<dyn Arm>> = vec![
            Box::new(PrerecordedArm::new("cheap", vec![0.5, 0.4, 0.3]).with_cost(1.0)),
            Box::new(PrerecordedArm::new("pricey", vec![0.6, 0.5, 0.45]).with_cost(10.0)),
        ];
        let outcome = exhaust_all(&mut arms);
        assert!((outcome.total_cost - (3.0 + 30.0)).abs() < 1e-9);
    }
}
