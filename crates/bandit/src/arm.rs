//! The arm abstraction pulled by the selection strategies, plus a
//! pre-recorded arm that replays a fixed loss curve for tests.

/// A non-stochastic bandit arm.
///
/// One *pull* consumes one unit of budget (for Snoopy: one training batch fed
/// to the streamed 1NN evaluator plus the inference cost of embedding that
/// batch) and returns the arm's current loss (the 1NN test error). Losses are
/// assumed to (noisily) decrease and converge as more budget is spent.
///
/// The scheduler reads nothing else: [`Arm::current_loss`] before a pull and
/// the value [`Arm::pull`] returns are the last two points of the arm's loss
/// curve, which is all the tangent break needs.
///
/// Arms are `Send` so the strategies can pull independent arms as tasks on
/// the current `snoopy-pool` pool.
pub trait Arm: Send {
    /// Performs one pull and returns the loss after it, which must equal
    /// [`Arm::current_loss`] read right after.
    ///
    /// Pulling an exhausted arm must be a no-op returning the final loss.
    fn pull(&mut self) -> f64;

    /// Number of pulls performed so far.
    fn pulls(&self) -> usize;

    /// Whether the arm has consumed all of its underlying data.
    fn exhausted(&self) -> bool;

    /// The most recent loss (1.0 before the first pull by convention).
    fn current_loss(&self) -> f64;
}

/// An arm backed by a pre-recorded loss curve: a test fake that replays
/// convergence curves without running kNN.
#[derive(Debug, Clone)]
pub struct PrerecordedArm {
    curve: Vec<f64>,
    pulls: usize,
}

impl PrerecordedArm {
    /// Creates an arm that replays `curve` (loss after pull 1, 2, ...).
    ///
    /// # Panics
    /// Panics if the curve is empty.
    pub fn new(curve: Vec<f64>) -> Self {
        assert!(!curve.is_empty(), "pre-recorded arm needs at least one loss value");
        Self { curve, pulls: 0 }
    }
}

impl Arm for PrerecordedArm {
    fn pull(&mut self) -> f64 {
        if self.pulls < self.curve.len() {
            self.pulls += 1;
        }
        self.current_loss()
    }

    fn pulls(&self) -> usize {
        self.pulls
    }

    fn exhausted(&self) -> bool {
        self.pulls >= self.curve.len()
    }

    fn current_loss(&self) -> f64 {
        if self.pulls == 0 {
            1.0
        } else {
            self.curve[self.pulls - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prerecorded_arm_replays_curve() {
        let mut arm = PrerecordedArm::new(vec![0.5, 0.4, 0.3]);
        assert_eq!(arm.current_loss(), 1.0);
        assert!(!arm.exhausted());
        assert_eq!(arm.pull(), 0.5);
        assert_eq!(arm.pull(), 0.4);
        assert_eq!(arm.pull(), 0.3);
        assert!(arm.exhausted());
        // Pulling past the end is a no-op.
        assert_eq!(arm.pull(), 0.3);
        assert_eq!(arm.pulls(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one loss")]
    fn rejects_empty_curve() {
        let _ = PrerecordedArm::new(vec![]);
    }
}
