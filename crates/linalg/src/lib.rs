//! # snoopy-linalg
//!
//! Dense linear-algebra and random-number substrate for the Snoopy
//! feasibility-study system.
//!
//! The crate deliberately implements only what the rest of the workspace
//! needs, from scratch and — apart from the contained `mmap` wrapper in
//! [`disk`] and the three calls in [`kernel`] that dispatch to an AVX2 twin
//! after a CPU probe — without unsafe code:
//!
//! * a row-major [`Matrix`] of `f32` features with the usual constructors,
//!   slicing, and matrix operations (`matmul`, `transpose`, a covariance
//!   that skips the zeros of sparse columns, row/column statistics),
//! * the register-blocked microkernels ([`kernel`]): a fixed-order
//!   multi-lane dot product plus a row-tile driver whose results are
//!   bit-identical to the scalar path for every tile shape — the compute
//!   substrate of every distance evaluation in `snoopy-knn` — and a 4 × 8
//!   blocked matrix product, bit-identical to the `ikj` loop, behind every
//!   linear map of the transformation zoo; each runs as an AVX2 build of
//!   the same code on CPUs that have it, with the same bits,
//! * zero-copy dataset views ([`view::DatasetView`], [`view::LabeledView`])
//!   — the shared data handshake between the dataset registry, the kNN
//!   engine, the Bayes-error estimators, and the feasibility study,
//! * the out-of-core backing for those views ([`disk`]): a versioned
//!   on-disk format (row-major f32 features, u32 labels sidecar, FNV-1a
//!   checksum) and an mmap-backed [`disk::DiskDataset`] /
//!   [`disk::DiskLabels`] pair whose windows are indistinguishable from
//!   in-memory matrices downstream,
//! * Lloyd's k-means with deterministic seeding ([`kmeans`]) — the
//!   coarse-partition substrate of the exact pruned nearest-neighbour index
//!   in `snoopy-knn`,
//! * a symmetric eigen-solver for the `k` leading pairs ([`eigen`]):
//!   Householder tridiagonalisation, implicit-shift QL eigenvalues, and
//!   inverse iteration for the wanted eigenvectors only (the LAPACK
//!   `dsyevx` route), in `f64` working precision; the cyclic Jacobi method
//!   is kept as the test oracle in `tests/proptest_eigen.rs`,
//! * principal component analysis ([`pca::Pca`], one eigenbasis per task,
//!   truncated for each width), feature standardisation
//!   ([`projection::Standardizer`]) and Gaussian random projections
//!   ([`projection::RandomProjection`]),
//! * small statistics helpers (softmax, log-sum-exp, argmax, quantiles,
//!   ordinary least squares) in [`stats`],
//! * RNG helpers in [`rng`] (Box–Muller normal draws, categorical sampling,
//!   Fisher–Yates subsets) built only on the `rand` crate so that no extra
//!   dependency on `rand_distr` is needed.
//!
//! Everything is deterministic given a seed, which the experiment harness
//! relies on to regenerate the paper's tables and figures reproducibly.

pub mod disk;
pub mod eigen;
pub mod kernel;
pub mod kmeans;
pub mod matrix;
pub mod pca;
pub mod projection;
pub mod rng;
pub mod stats;
pub mod view;

pub use disk::{DiskDataset, DiskDatasetError, DiskLabels};
pub use kmeans::{lloyd_kmeans, KMeans};
pub use matrix::Matrix;
pub use pca::Pca;
pub use projection::{RandomProjection, Standardizer};
pub use view::{DatasetView, LabeledView};
