//! # snoopy-models
//!
//! Baseline models that the paper compares Snoopy against (Section VI-A):
//!
//! * **LR proxy** ([`logreg`]): multinomial logistic regression trained with
//!   SGD + momentum over the paper's hyper-parameter grid (learning rates
//!   {0.001, 0.01, 0.1} × L2 {0, 0.001, 0.01}, 20 epochs, batch 64), whose
//!   minimal test error serves as a cheap feasibility proxy,
//! * **AutoML** ([`automl`]): a budgeted search over logistic regression,
//!   kNN, and MLP configurations standing in for AutoKeras / auto-sklearn,
//! * **FineTune** ([`finetune`]): an expensive, high-capacity model standing
//!   in for fine-tuning EfficientNet-B4 / BERT — the "expensive training run"
//!   of the end-to-end use case, with a matching simulated cost,
//! * **MLP** ([`mlp`]): the shared multilayer-perceptron building block,
//! * a simulated machine-cost model ([`cost`]) used to convert training time
//!   into the hypothetical dollar costs of Figures 9/10.

#![forbid(unsafe_code)]

pub mod automl;
pub mod cost;
pub mod finetune;
pub mod logreg;
pub mod mlp;

pub use automl::{AutoMlConfig, AutoMlOutcome, AutoMlSearch};
pub use cost::{CostScenario, LabelCost, MachineCost};
pub use finetune::{FineTuneBaseline, FineTuneOutcome};
pub use logreg::{LogRegConfig, LogisticRegression};
pub use mlp::{MlpClassifier, MlpConfig};
