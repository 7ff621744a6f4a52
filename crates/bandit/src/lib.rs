//! # snoopy-bandit
//!
//! Non-stochastic best-arm identification for Snoopy's embedding selection
//! (Section V of the paper).
//!
//! Each feature transformation is an *arm*; pulling an arm means feeding one
//! more batch of training samples to its streamed 1NN evaluator and reading
//! off the updated test error (the arm's *loss*). Because inference over the
//! large pre-trained models dominates the cost, the scheduler's job is to
//! spend as few pulls as possible on transformations that will clearly not
//! yield the minimum estimate.
//!
//! One [`StrategyDriver`] runs every [`SelectionStrategy`], one phase of
//! pulls per [`StrategyDriver::step`]:
//!
//! * uniform allocation — the baseline from Jamieson & Talwalkar that
//!   spreads the budget evenly,
//! * successive halving — Algorithm 1 of the paper's appendix,
//! * successive halving **with tangent breaks** — Algorithm 2: a tangent
//!   through the last two points of the convergence curve lower-bounds the
//!   error an arm can reach by the end of the round (convergence curves are
//!   decreasing and convex on average); arms whose bound is already worse
//!   than half the field stop pulling early,
//! * exhaustive evaluation — every arm pulled dry.

#![forbid(unsafe_code)]

pub mod arm;
pub mod strategies;

pub use arm::{Arm, PrerecordedArm};
pub use strategies::{SelectionStrategy, StrategyDriver};
