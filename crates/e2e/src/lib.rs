//! # snoopy-e2e
//!
//! The end-to-end label-cleaning use case of Section VI-D.
//!
//! A user holds a noisy dataset and a target accuracy, and can repeatedly
//! (1) clean a portion of the labels, (2) train an expensive high-accuracy
//! model, or (3) run a feasibility study (the cheap LR proxy or Snoopy).
//! The simulator plays out the paper's interaction models
//!
//! * **without** a feasibility study: train the expensive model, clean a
//!   fixed step (1 %, 5 %, 10 %, 50 %) whenever the target is missed, repeat;
//! * **with** a feasibility study: alternate cheap feasibility checks and 1 %
//!   cleaning rounds until the study reports REALISTIC, then train the
//!   expensive model once (re-cleaning further if the single expensive run
//!   still misses the target);
//!
//! under the paper's cost scenarios (free / cheap / expensive labels,
//! 0.9 $/GPU-hour), producing the cost-versus-cleaning traces of
//! Figures 9, 10 and 21–27.

#![forbid(unsafe_code)]

pub mod oocore;
pub mod server;
pub mod simulate;
pub mod sliding;
pub mod strategy;

pub use oocore::{run_oocore_scenario, OocoreRun};
pub use server::{run_server_scenario, ServerRun};
pub use simulate::{simulate, SimulationConfig, Trace, TracePoint};
pub use sliding::{run_sliding_scenario, SlidingRun};
pub use strategy::UserStrategy;
