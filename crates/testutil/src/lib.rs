//! # snoopy-testutil
//!
//! Shared test-support builders for the workspace's integration and property
//! tests. Before this crate, every test file under `crates/knn/tests/` and
//! `crates/estimators/tests/` grew its own copy of "random labelled point
//! cloud" and "Gaussian mixture task with known BER" — this crate is the one
//! home for those fixtures, so adding a tie-heavy or clustered variant
//! benefits every consumer at once.
//!
//! The builders reproduce the historical constructions byte for byte (same
//! RNG, same expressions), so routing an existing test through this crate
//! does not change the data it runs on. This is a dev-dependency-only crate:
//! it may depend on `snoopy-data` (and transitively `snoopy-knn`) because
//! cargo permits cycles through dev-dependencies.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_linalg::{rng, Matrix};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A self-cleaning scratch directory under the system temp dir — the
/// fixture behind every disk-dataset test and bench, so `cargo test -q`
/// leaves no artifacts behind. Each call gets a unique directory
/// (pid + sequence number), removed recursively on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh empty scratch directory tagged `tag` (for post-mortem
    /// readability if a crash ever strands one).
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "snoopy_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir { path }
    }

    /// The scratch directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Random labelled point cloud: `n × d` features uniform in `[-5, 5)` and
/// uniform labels in `0..classes`.
pub fn cloud(seed: u64, n: usize, d: usize, classes: u32) -> (Matrix, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() * 10.0 - 5.0);
    let y = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    (m, y)
}

/// [`cloud`] with every 7th row duplicated from the row before it, so
/// distance ties actually occur — tie-breaking is part of the engines'
/// bit-identical contract and needs data that exercises it.
pub fn cloud_with_ties(seed: u64, n: usize, d: usize, classes: u32) -> (Matrix, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::from_fn(n, d, |_, _| rng.gen::<f32>() * 10.0 - 5.0);
    for r in (7..n).step_by(7) {
        let prev = m.row(r - 1).to_vec();
        m.row_mut(r).copy_from_slice(&prev);
    }
    let y = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    (m, y)
}

/// Clustered synthetic features: `n` rows drawn round-robin from `centers`
/// Gaussian blobs (centres ~ N(0, spread²), within-blob std `within`). This
/// is the shape the exact pruned index thrives on; use it to
/// exercise (and assert) non-trivial pruning rates.
pub fn blob_cloud(seed: u64, n: usize, d: usize, centers: usize, spread: f64, within: f64) -> Matrix {
    let mut r = rng::seeded(seed);
    let cents = Matrix::from_fn(centers, d, |_, _| (rng::normal(&mut r) * spread) as f32);
    Matrix::from_fn(n, d, |row, col| cents.get(row % centers, col) + (rng::normal(&mut r) * within) as f32)
}

/// A synthetic classification task drawn from a Gaussian mixture with a
/// Monte-Carlo estimate of its true Bayes error — the standard fixture of
/// the estimator-comparison tests.
pub struct GaussianTask {
    /// Training features.
    pub train_x: Matrix,
    /// Training labels.
    pub train_y: Vec<u32>,
    /// Held-out evaluation features.
    pub test_x: Matrix,
    /// Held-out evaluation labels.
    pub test_y: Vec<u32>,
    /// Monte-Carlo estimate of the mixture's true Bayes error.
    pub true_ber: f64,
    /// Number of classes.
    pub num_classes: usize,
}

/// Builds a [`GaussianTask`] (latent dim 6, within-class std 1.0 — the
/// fixture the estimator comparison has always used).
pub fn gaussian_task(num_classes: usize, sep: f64, seed: u64, n_train: usize, n_test: usize) -> GaussianTask {
    let mix = GaussianMixture::from_spec(&GaussianMixtureSpec {
        num_classes,
        latent_dim: 6,
        class_sep: sep,
        within_std: 1.0,
        seed,
    });
    let mut r = rng::seeded(seed ^ 0xabc);
    let (train_x, train_y) = mix.sample(n_train, &mut r);
    let (test_x, test_y) = mix.sample(n_test, &mut r);
    let true_ber = mix.bayes_error_monte_carlo(20_000, seed ^ 0xd00d);
    GaussianTask { train_x, train_y, test_x, test_y, true_ber, num_classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_is_deterministic_and_shaped() {
        let (a, ya) = cloud(3, 20, 4, 3);
        let (b, yb) = cloud(3, 20, 4, 3);
        assert_eq!(a.data(), b.data());
        assert_eq!(ya, yb);
        assert_eq!(a.rows(), 20);
        assert_eq!(a.cols(), 4);
        assert!(ya.iter().all(|&y| y < 3));
    }

    #[test]
    fn ties_variant_actually_duplicates_rows() {
        let (m, _) = cloud_with_ties(5, 30, 3, 2);
        assert_eq!(m.row(7), m.row(6));
        assert_eq!(m.row(14), m.row(13));
        assert_ne!(m.row(8), m.row(7));
    }

    #[test]
    fn blob_cloud_groups_rows_round_robin() {
        let m = blob_cloud(9, 40, 5, 4, 6.0, 0.05);
        // Rows of the same blob are near each other, different blobs far.
        let same = Matrix::row_sq_dist(m.row(0), m.row(4));
        let diff = Matrix::row_sq_dist(m.row(0), m.row(1));
        assert!(same < diff, "within-blob {same} vs cross-blob {diff}");
    }

    #[test]
    fn gaussian_task_has_plausible_ber() {
        let t = gaussian_task(3, 2.5, 7, 60, 30);
        assert_eq!(t.train_x.rows(), 60);
        assert_eq!(t.test_y.len(), 30);
        assert!((0.0..=1.0).contains(&t.true_ber));
    }
}
