//! Principal component analysis.
//!
//! Snoopy's transformation zoo includes PCA32/PCA64/PCA128 entries (Table III
//! of the paper). PCA here is the classic covariance-eigendecomposition
//! variant: fit on the training split, then apply to train and test alike.
//!
//! A fit pays for the `k` components it returns. [`Matrix::covariance`]
//! skips the zeros of sparse columns (term frequencies are a few per cent
//! non-zero), and [`symmetric_eigen`] computes only the `k` leading
//! eigenvectors, at `O(k·d²)` on top of the `O(d³)` tridiagonal reduction.
//!
//! All widths of one task share one basis: the solver's `j`-th eigenvector
//! does not depend on how many are asked for, so a width-`k` fit is exactly
//! the first `k` components of any wider fit. Fit once at the widest width
//! and take the narrower ones with [`Pca::truncated`]. A component's sign is
//! arbitrary; flipping it negates that output coordinate exactly and leaves
//! every distance between projected rows unchanged.

use crate::eigen::symmetric_eigen;
use crate::kernel::{matmul_tile, ROW_BLOCK};
use crate::matrix::Matrix;
use crate::view::DatasetView;

/// A fitted PCA transform. One fit serves every width of a task: the
/// narrower transforms are [`Pca::truncated`] copies of the widest.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Per-feature mean subtracted before projecting.
    mean: Vec<f32>,
    /// `k × d` matrix whose rows are the top-`k` principal directions.
    components: Matrix,
    /// Eigenvalues (variances) associated with the retained components.
    explained_variance: Vec<f64>,
}

impl Pca {
    /// Fits PCA with `k` components on the rows of `data`.
    ///
    /// `k` is clamped to the feature dimension. Fitting on an empty matrix
    /// yields an all-zero transform of the requested width.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        let d = data.cols();
        let k = k.min(d).max(1);
        if data.rows() == 0 || d == 0 {
            return Self {
                mean: vec![0.0; d],
                components: Matrix::zeros(k, d),
                explained_variance: vec![0.0; k],
            };
        }
        let mean = data.column_means().iter().map(|&m| m as f32).collect();
        let eig = symmetric_eigen(&data.covariance(), k);
        let explained_variance = eig.values.iter().map(|v| v.max(0.0)).collect();
        Self { mean, components: eig.vectors, explained_variance }
    }

    /// The leading `k` components of this fit (`k` clamped to
    /// `1..=num_components()`), bit-identical to refitting the same data with
    /// `k` components.
    pub fn truncated(&self, k: usize) -> Self {
        let k = k.clamp(1, self.num_components());
        let d = self.components.cols();
        Self {
            mean: self.mean.clone(),
            components: Matrix::from_vec(k, d, self.components.data()[..k * d].to_vec()),
            explained_variance: self.explained_variance[..k].to_vec(),
        }
    }

    /// Number of retained components.
    pub fn num_components(&self) -> usize {
        self.components.rows()
    }

    /// Variance explained by each retained component, in descending order.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of total variance captured by the retained components, given
    /// the total variance of the fitted data (sum of all eigenvalues equals
    /// the trace of the covariance).
    pub fn explained_variance_ratio(&self, total_variance: f64) -> f64 {
        if total_variance <= 0.0 {
            return 0.0;
        }
        (self.explained_variance.iter().sum::<f64>() / total_variance).min(1.0)
    }

    /// Projects each row of `data` onto the principal subspace, producing an
    /// `n × k` matrix. Accepts owned matrices (`&Matrix`) and zero-copy
    /// [`DatasetView`]s alike.
    ///
    /// Output `c` of a row is the `f32` sum of `(x_j − μ_j)·v_cj` from `+0.0`
    /// in feature order, every term included. The rows go in blocks of
    /// [`ROW_BLOCK`]: each block is centred into one reused scratch tile
    /// (no centred copy of the whole input) and multiplied by the transposed
    /// components in [`matmul_tile`]'s register block, which adds the terms
    /// in exactly that order.
    pub fn transform<'a>(&self, data: impl Into<DatasetView<'a>>) -> Matrix {
        let data = data.into();
        let d = self.mean.len();
        assert_eq!(data.cols(), d, "PCA transform dimension mismatch");
        let (weights, k) = (self.components.transpose(), self.components.rows());
        let mut out = Matrix::zeros(data.rows(), k);
        if d == 0 {
            return out;
        }
        let mut centred = vec![0.0f32; ROW_BLOCK * d];
        for (block, o) in data.data().chunks(ROW_BLOCK * d).zip(out.data_mut().chunks_mut(ROW_BLOCK * k)) {
            let centred = &mut centred[..block.len()];
            for (c_row, x_row) in centred.chunks_exact_mut(d).zip(block.chunks_exact(d)) {
                for ((c, &x), &mean) in c_row.iter_mut().zip(x_row).zip(&self.mean) {
                    *c = x - mean;
                }
            }
            matmul_tile(centred, weights.data(), d, k, o);
        }
        out
    }

    /// The principal directions as a `k × d` matrix (rows are unit vectors).
    pub fn components(&self) -> &Matrix {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    /// Generates points along a dominant direction with small orthogonal noise.
    fn line_cloud(n: usize, seed: u64) -> Matrix {
        let mut r = rng::seeded(seed);
        let mut m = Matrix::zeros(n, 3);
        for i in 0..n {
            let t: f32 = r.gen::<f32>() * 10.0 - 5.0;
            // Dominant direction (1, 2, 0)/sqrt(5), small noise elsewhere.
            let noise = rng::normal_vec(&mut r, 3);
            m.set(i, 0, t * 1.0 + 0.05 * noise[0]);
            m.set(i, 1, t * 2.0 + 0.05 * noise[1]);
            m.set(i, 2, 0.05 * noise[2]);
        }
        m
    }

    #[test]
    fn first_component_aligns_with_dominant_direction() {
        let data = line_cloud(500, 42);
        let pca = Pca::fit(&data, 1);
        let c = pca.components().row(0);
        // Expected direction (1,2,0)/sqrt(5) up to sign.
        let expected = [1.0 / 5.0f32.sqrt(), 2.0 / 5.0f32.sqrt(), 0.0];
        let dot: f32 = c.iter().zip(&expected).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "dot = {dot}");
    }

    #[test]
    fn transform_has_requested_width_and_centered_scores() {
        let data = line_cloud(300, 7);
        let pca = Pca::fit(&data, 2);
        let t = pca.transform(&data);
        assert_eq!(t.rows(), 300);
        assert_eq!(t.cols(), 2);
        let means = t.column_means();
        assert!(means[0].abs() < 1e-3);
        assert!(means[1].abs() < 1e-3);
    }

    #[test]
    fn k_is_clamped_to_dimension() {
        let data = line_cloud(50, 3);
        let pca = Pca::fit(&data, 10);
        assert_eq!(pca.num_components(), 3);
    }

    #[test]
    fn explained_variance_is_descending_and_ratio_bounded() {
        let data = line_cloud(400, 11);
        let pca = Pca::fit(&data, 3);
        let ev = pca.explained_variance();
        assert!(ev[0] >= ev[1] && ev[1] >= ev[2]);
        let total: f64 = ev.iter().sum();
        let ratio = pca.explained_variance_ratio(total);
        assert!((ratio - 1.0).abs() < 1e-9);
        assert!(pca.explained_variance_ratio(0.0) == 0.0);
    }

    #[test]
    fn components_are_orthonormal() {
        let data = line_cloud(400, 13);
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            for j in 0..3 {
                let dot = Matrix::row_dot(pca.components().row(i), pca.components().row(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-4, "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn truncating_the_widest_fit_equals_a_narrow_fit() {
        let mut r = rng::seeded(17);
        let data = Matrix::from_fn(300, 160, |_, c| (rng::normal(&mut r) * (1.0 + c as f64 / 16.0)) as f32);
        let wide = Pca::fit(&data, 128);
        for k in [32, 64] {
            let (narrow, cut) = (Pca::fit(&data, k), wide.truncated(k));
            assert_eq!(cut.mean, narrow.mean);
            assert_eq!(cut.components.data(), narrow.components.data());
            assert_eq!(cut.explained_variance, narrow.explained_variance);
        }
    }

    #[test]
    fn empty_fit_is_well_defined() {
        let data = Matrix::zeros(0, 4);
        let pca = Pca::fit(&data, 2);
        assert_eq!(pca.num_components(), 2);
        let out = pca.transform(&Matrix::zeros(0, 4));
        assert_eq!(out.rows(), 0);
    }
}
