//! # snoopy
//!
//! Facade crate re-exporting the entire Snoopy workspace: a Rust
//! reproduction of *"Automatic Feasibility Study via Data Quality Analysis
//! for ML: A Case-Study on Label Noise"* (Renggli et al., ICDE 2023).
//!
//! Snoopy answers one question before any expensive AutoML or fine-tuning
//! run: *given this (possibly label-noisy) dataset, is a target accuracy
//! `α_target` realistic?* It does so by estimating a lower bound of the
//! task's Bayes error rate with a 1NN estimator evaluated over a zoo of
//! feature transformations, aggregated by taking the minimum, and scheduled
//! with a successive-halving bandit.
//!
//! ```
//! use snoopy::prelude::*;
//!
//! // A small noisy replica of CIFAR-10 (40% uniform label noise).
//! let task = snoopy::data::registry::load_with_noise(
//!     "cifar10",
//!     SizeScale::Tiny,
//!     &NoiseModel::Uniform(0.4),
//!     42,
//! );
//! let zoo = zoo_for_task(&task, 42);
//! let report = FeasibilityStudy::new(SnoopyConfig::with_target(0.95)).run(&task, &zoo);
//! // 40% uniform noise on 10 classes pushes the Bayes error to ~0.36: a 95%
//! // accuracy target is hopeless and Snoopy says so.
//! assert!(!report.is_realistic());
//! ```
//!
//! The sub-crates are re-exported under short module names:
//!
//! | module | contents |
//! |---|---|
//! | [`linalg`] | dense matrices, PCA, RNG substrate |
//! | [`data`] | synthetic dataset registry, label-noise models, cleaning simulator |
//! | [`knn`] | the incremental top-k successor state and exact kNN engines |
//! | [`estimators`] | Bayes-error estimators and extrapolation |
//! | [`embeddings`] | the simulated pre-trained transformation zoo |
//! | [`models`] | LR proxy, MLP, AutoML and FineTune baselines, cost model |
//! | [`bandit`] | the one strategy driver: successive halving with tangent breaks and its baselines |
//! | [`core`] | the feasibility study itself |
//! | [`e2e`] | the end-to-end label-cleaning use-case simulator |

#![forbid(unsafe_code)]

pub use snoopy_bandit as bandit;
pub use snoopy_core as core;
pub use snoopy_data as data;
pub use snoopy_e2e as e2e;
pub use snoopy_embeddings as embeddings;
pub use snoopy_estimators as estimators;
pub use snoopy_knn as knn;
pub use snoopy_linalg as linalg;
pub use snoopy_models as models;

/// Commonly used items, importable with `use snoopy::prelude::*`.
pub mod prelude {
    pub use snoopy_bandit::SelectionStrategy;
    pub use snoopy_core::{
        FeasibilityDecision, FeasibilityStudy, IncrementalStudy, SnoopyConfig, StudyReport,
    };
    pub use snoopy_data::registry::SizeScale;
    pub use snoopy_data::{NoiseModel, TaskDataset, TransitionMatrix};
    pub use snoopy_embeddings::{zoo_for_task, Transformation};
    pub use snoopy_estimators::cover_hart_lower_bound;
    pub use snoopy_knn::Metric;
    pub use snoopy_models::{CostScenario, LabelCost, MachineCost};
}
