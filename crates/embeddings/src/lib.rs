//! # snoopy-embeddings
//!
//! The feature-transformation zoo Snoopy consults.
//!
//! The paper runs its 1NN Bayes-error estimator on top of 15–20 publicly
//! available pre-trained embeddings per modality (Tables III and IV:
//! AlexNet … EfficientNet-B7 for vision, NNLM … XLNet-Large for text), plus
//! PCA and the raw representation. Offline, those checkpoints are replaced by
//! *simulated* pre-trained encoders: deterministic nonlinear maps that blend
//! a latent-recovery signal (how much of the task's generative structure the
//! embedding captures — its *fidelity*) with structured distortion. Each zoo
//! entry keeps the paper's embedding name, output dimensionality, and a
//! per-sample inference cost matching the relative cost ordering of the
//! original models, so the successive-halving and end-to-end cost experiments
//! exercise the same trade-offs.
//!
//! The crate provides:
//!
//! * the [`Transformation`] trait ([`transform`]),
//! * classical members of the zoo: identity, standardisation, PCA, random
//!   projection, and an LDA/NCA-style supervised projection ([`basic`]),
//! * simulated pre-trained encoders ([`pretrained`]),
//! * the vision and NLP registries with cost model ([`registry`]),
//! * a thread-safe embedding cache ([`cache`]).

#![forbid(unsafe_code)]

pub mod basic;
pub mod cache;
pub mod pretrained;
pub mod registry;
pub mod transform;

pub use cache::EmbeddingCache;
pub use pretrained::SimulatedPretrained;
pub use registry::{nlp_zoo, vision_zoo, zoo_for_task, ZooEntry};
pub use transform::{Transformation, TransformedTask};
