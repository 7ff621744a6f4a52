//! # snoopy-data
//!
//! Datasets, synthetic generators, and label-noise models for the Snoopy
//! feasibility-study system.
//!
//! The paper evaluates Snoopy on six public vision/NLP benchmarks (Table I)
//! plus the human-annotated CIFAR-N noisy variants (Table II). Those corpora
//! cannot be shipped with an offline reproduction, so this crate provides
//! *generative replicas*: synthetic tasks with
//!
//! * the same number of classes, train/test proportions and modality mix,
//! * a state-of-the-art error anchor taken from Table I,
//! * and — crucially — a **known Bayes error rate (BER)** by construction,
//!   which the original benchmarks do not have. This turns the paper's
//!   "SOTA as a proxy for the BER" argument into something that can actually
//!   be verified in tests and experiments.
//!
//! The crate also implements the paper's label-noise theory: uniform noise
//! (Lemma 2.1), class-dependent transition-matrix noise (Theorem 3.1) with its
//! lower/upper bounds (Eq. 17–19) and the diagonal-average approximation
//! (Eq. 20), pairwise flipping, and replicas of the CIFAR-N transition
//! matrices with the statistics of Table II.

#![forbid(unsafe_code)]

pub mod cleaning;
pub mod dataset;
pub mod disk;
pub mod feature_noise;
pub mod gaussian;
pub mod noise;
pub mod registry;
pub mod text;
pub mod vision;

pub use dataset::{Dataset, DatasetMeta, Modality, TaskDataset};
pub use disk::{DiskLabeledDataset, DiskPairError};
pub use noise::{NoiseModel, TransitionMatrix};
pub use registry::{DatasetSpec, SizeScale};
