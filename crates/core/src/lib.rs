//! # snoopy-core
//!
//! The Snoopy feasibility-study system (the paper's primary contribution).
//!
//! Given a representative, possibly label-noisy dataset and a target accuracy
//! `α_target`, Snoopy estimates a lower bound on the task's Bayes error rate
//! (BER) and answers whether the target is **REALISTIC** or **UNREALISTIC**:
//!
//! 1. a zoo of feature transformations (pre-trained embeddings, PCA, NCA,
//!    raw) is evaluated with the 1NN classifier, streamed over training
//!    batches ([`arm::TransformationArm`]),
//! 2. a successive-halving bandit decides how much inference budget each
//!    transformation deserves (`snoopy-bandit`),
//! 3. each transformation's finite-sample 1NN error is converted to a BER
//!    lower bound with the Cover–Hart correction (Eq. 2) and the estimates
//!    are aggregated **by taking the minimum** (Section IV),
//! 4. the binary signal is `REALISTIC` iff `min_f R̂_f ≤ 1 − α_target`,
//!    accompanied by the additional guidance of Section IV-C: the gap to the
//!    target, per-transformation convergence curves, and a log-linear
//!    extrapolation of how many extra samples would be needed,
//! 5. after label cleaning, the study re-runs incrementally in `O(test)`
//!    ([`incremental::IncrementalStudy`]),
//! 6. many studies are served concurrently — fair round interleaving on the
//!    persistent worker pool, per-tenant embedding caches for warm repeat
//!    requests, per-round progress streaming
//!    ([`service::FeasibilityService`]),
//! 7. deployed tasks keep the answer live: a sliding window over the
//!    labelled stream maintains windowed BER estimates per transformation
//!    through eviction-enabled incremental states and raises a drift alarm
//!    when the windowed estimate departs from the study-time one
//!    ([`sliding::SlidingWindowStudy`]).
//!
//! The [`theory`] module computes the regime quantities `δ_f`, `Δ_f`,
//! `γ_{f,n}` of Section IV-B on synthetic tasks with known BER, reproducing
//! the justification for the minimum aggregation (Figures 14–17).

pub mod arm;
pub mod config;
pub mod guidance;
pub mod incremental;
pub mod oocore;
pub mod service;
pub mod sliding;
pub mod study;
pub mod theory;

pub use config::{ConfigError, SnoopyConfig};
pub use guidance::AdditionalGuidance;
pub use incremental::IncrementalStudy;
pub use oocore::{run_oocore_study, run_resident_reference, OutOfCoreConfig, OutOfCoreReport};
pub use service::{FeasibilityService, StudyProgress, StudyRequest};
pub use sliding::{DriftAlarm, SlidingWindowConfig, SlidingWindowReport, SlidingWindowStudy, WindowProgress};
pub use study::{FeasibilityDecision, FeasibilityStudy, StudyReport, TransformationResult};
