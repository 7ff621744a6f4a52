//! Classical zoo members: identity, standardisation, PCA, random projection,
//! and an LDA/NCA-style supervised projection.

use crate::transform::Transformation;
use snoopy_linalg::eigen::symmetric_eigen_f64;
use snoopy_linalg::{DatasetView, Matrix, Pca, RandomProjection, Standardizer};

/// The identity ("Raw") transformation of Table III.
#[derive(Debug, Clone)]
pub struct Identity {
    dim: usize,
}

impl Identity {
    /// Creates the identity transformation for `dim`-dimensional inputs.
    pub fn new(dim: usize) -> Self {
        Self { dim }
    }
}

impl Transformation for Identity {
    fn name(&self) -> &str {
        "raw"
    }
    fn output_dim(&self) -> usize {
        self.dim
    }
    fn cost_per_sample(&self) -> f64 {
        0.0
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        x.to_matrix()
    }
}

/// Per-feature z-scoring fitted on the training split ("with normalization"
/// variants of Table IV).
pub struct StandardizeTransform {
    name: String,
    standardizer: Standardizer,
    dim: usize,
    cost: f64,
}

impl StandardizeTransform {
    /// Fits the standardiser on `train`.
    pub fn fit(train: &Matrix) -> Self {
        Self {
            name: "standardize".to_string(),
            standardizer: Standardizer::fit(train),
            dim: train.cols(),
            cost: 1e-6,
        }
    }
}

impl Transformation for StandardizeTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.dim
    }
    fn cost_per_sample(&self) -> f64 {
        self.cost
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.standardizer.transform(x)
    }
}

/// PCA projection fitted on the training split (PCA32/PCA64/PCA128 of
/// Table III). The widths of one task share one basis: the zoo fits the
/// widest and wraps [`Pca::truncated`] copies with [`PcaTransform::from_pca`].
pub struct PcaTransform {
    name: String,
    pca: Pca,
    cost: f64,
}

impl PcaTransform {
    /// Fits PCA with `k` components on `train`.
    pub fn fit(train: &Matrix, k: usize) -> Self {
        Self::from_pca(Pca::fit(train, k))
    }

    /// Wraps an already fitted PCA, named after its width.
    pub fn from_pca(pca: Pca) -> Self {
        Self { name: format!("pca{}", pca.num_components()), pca, cost: 2e-6 }
    }
}

impl Transformation for PcaTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.pca.num_components()
    }
    fn cost_per_sample(&self) -> f64 {
        self.cost
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.pca.transform(x)
    }
}

/// Gaussian random projection (a deliberately mediocre zoo member used to
/// stress the minimum aggregation).
pub struct RandomProjectionTransform {
    name: String,
    projection: RandomProjection,
}

impl RandomProjectionTransform {
    /// Creates a random projection to `k` dimensions.
    pub fn new(input_dim: usize, k: usize, seed: u64) -> Self {
        Self { name: format!("random-proj{k}"), projection: RandomProjection::new(input_dim, k, seed) }
    }
}

impl Transformation for RandomProjectionTransform {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.projection.output_dim()
    }
    fn cost_per_sample(&self) -> f64 {
        1e-6
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.projection.transform(x)
    }
}

/// NCA/LDA-style supervised linear projection (the "NCA" entry of the paper's
/// vision zoo): projects onto the top eigenvectors of the between-class
/// scatter of standardised features.
///
/// The scatter `S = M·Mᵀ` has one column `√w_c·(μ_c − μ)` in `M` per class
/// present in the training split (class weight `w_c`, class mean `μ_c`,
/// global mean `μ`), so its rank is below the class count `C`. The directions
/// come from the `C × C` Gram matrix `G = Mᵀ·M` instead: an eigenpair
/// `(λ, u)` of `G` gives the unit eigenvector `M·u / √λ` of `S`, at `O(C²d)`
/// rather than `O(d³)`. A direction with `λ ≤ 1e-12·λ_max` carries no
/// between-class signal and stays a zero column of the projection.
pub struct SupervisedProjection {
    name: String,
    standardizer: Standardizer,
    /// `d × k` projection matrix.
    projection: Matrix,
}

impl SupervisedProjection {
    /// Fits the projection on labelled training data, keeping `k` directions
    /// (clamped to `min(C − 1, d)`).
    pub fn fit(train: &Matrix, labels: &[u32], num_classes: usize, k: usize) -> Self {
        assert_eq!(train.rows(), labels.len(), "feature/label count mismatch");
        let standardizer = Standardizer::fit(train);
        let std_train = standardizer.transform(train);
        let d = std_train.cols();
        let k = k.min(num_classes.saturating_sub(1).max(1)).min(d);

        let global_mean = std_train.column_means();
        let mut class_sums = vec![vec![0.0f64; d]; num_classes];
        let mut counts = vec![0usize; num_classes];
        for (i, &y) in labels.iter().enumerate() {
            counts[y as usize] += 1;
            for (sum, &v) in class_sums[y as usize].iter_mut().zip(std_train.row(i)) {
                *sum += v as f64;
            }
        }
        // The columns of M, one per present class.
        let columns: Vec<Vec<f64>> = class_sums
            .into_iter()
            .zip(counts)
            .filter(|&(_, count)| count > 0)
            .map(|(mut column, count)| {
                let root_weight = (count as f64 / labels.len() as f64).sqrt();
                for (v, &mu) in column.iter_mut().zip(&global_mean) {
                    *v = root_weight * (*v / count as f64 - mu);
                }
                column
            })
            .collect();
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let c = columns.len();
        let gram = (0..c * c).map(|ab| dot(&columns[ab / c], &columns[ab % c])).collect();
        let eig = symmetric_eigen_f64(c, gram);

        let floor = 1e-12 * eig.values.first().copied().unwrap_or(0.0);
        let mut projection = Matrix::zeros(d, k);
        for (col, (&lambda, u)) in eig.values.iter().zip(eig.vectors.rows_iter()).take(k).enumerate() {
            if lambda <= floor {
                break;
            }
            let inv_norm = 1.0 / lambda.sqrt();
            for row in 0..d {
                let v: f64 = columns.iter().zip(u).map(|(column, &uc)| column[row] * uc as f64).sum();
                projection.set(row, col, (v * inv_norm) as f32);
            }
        }
        Self { name: "nca".to_string(), standardizer, projection }
    }
}

impl Transformation for SupervisedProjection {
    fn name(&self) -> &str {
        &self.name
    }
    fn output_dim(&self) -> usize {
        self.projection.cols()
    }
    fn cost_per_sample(&self) -> f64 {
        3e-6
    }
    fn transform(&self, x: DatasetView<'_>) -> Matrix {
        self.standardizer.transform(x).matmul(&self.projection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::registry::{load_clean, SizeScale};
    use snoopy_knn::{BruteForceIndex, Metric};

    #[test]
    fn identity_is_a_noop_with_zero_cost() {
        let task = load_clean("mnist", SizeScale::Tiny, 1);
        let id = Identity::new(task.raw_dim());
        let out = id.transform_matrix(&task.train.features);
        assert_eq!(out.data(), task.train.features.data());
        assert_eq!(id.cost_per_sample(), 0.0);
        assert_eq!(id.output_dim(), task.raw_dim());
    }

    #[test]
    fn pca_transform_reduces_dimension() {
        let task = load_clean("mnist", SizeScale::Tiny, 2);
        let pca = PcaTransform::fit(&task.train.features, 16);
        assert_eq!(pca.output_dim(), 16);
        assert_eq!(pca.name(), "pca16");
        let out = pca.transform_matrix(&task.test.features);
        assert_eq!(out.rows(), task.test.len());
        assert_eq!(out.cols(), 16);
    }

    #[test]
    fn standardize_and_random_projection_shapes() {
        let task = load_clean("sst2", SizeScale::Tiny, 3);
        let st = StandardizeTransform::fit(&task.train.features);
        assert_eq!(st.output_dim(), task.raw_dim());
        assert_eq!(st.transform_matrix(&task.test.features).cols(), task.raw_dim());
        let rp = RandomProjectionTransform::new(task.raw_dim(), 24, 9);
        assert_eq!(rp.output_dim(), 24);
        assert_eq!(rp.name(), "random-proj24");
        assert_eq!(rp.transform_matrix(&task.test.features).cols(), 24);
    }

    #[test]
    fn supervised_projection_improves_1nn_over_random_projection() {
        let task = load_clean("cifar10", SizeScale::Tiny, 4);
        let k = 8;
        let sup = SupervisedProjection::fit(&task.train.features, &task.train.labels, task.num_classes, k);
        let rand_proj = RandomProjectionTransform::new(task.raw_dim(), k.min(task.num_classes - 1), 5);

        let err = |train: &Matrix, test: &Matrix| {
            BruteForceIndex::new(train, &task.train.labels, task.num_classes, Metric::SquaredEuclidean)
                .one_nn_error(test, &task.test.labels)
        };
        let sup_err =
            err(&sup.transform_matrix(&task.train.features), &sup.transform_matrix(&task.test.features));
        let rand_err = err(
            &rand_proj.transform_matrix(&task.train.features),
            &rand_proj.transform_matrix(&task.test.features),
        );
        assert!(
            sup_err <= rand_err + 0.05,
            "supervised projection ({sup_err:.3}) should not be much worse than random ({rand_err:.3})"
        );
        assert_eq!(sup.name(), "nca");
        assert!(sup.output_dim() < task.num_classes);
    }

    /// `V·Vᵀ` for the `d × k` matrix `V` whose columns span a subspace.
    fn projector(columns: &[Vec<f64>], d: usize) -> Vec<f64> {
        (0..d * d).map(|rc| columns.iter().map(|v| v[rc / d] * v[rc % d]).sum()).collect()
    }

    #[test]
    fn supervised_projection_spans_the_top_scatter_eigenvectors() {
        for name in ["cifar10", "cifar100"] {
            let task = load_clean(name, SizeScale::Tiny, 6);
            let (train, labels) = (&task.train.features, &task.train.labels);
            let sup = SupervisedProjection::fit(train, labels, task.num_classes, 16);

            // The d × d between-class scatter, assembled explicitly.
            let std_train = Standardizer::fit(train).transform(train);
            let d = std_train.cols();
            let mu = std_train.column_means();
            let mut scatter = vec![0.0f64; d * d];
            for c in 0..task.num_classes as u32 {
                let rows: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
                if rows.is_empty() {
                    continue;
                }
                let weight = rows.len() as f64 / labels.len() as f64;
                let mean_c = std_train.select_rows(&rows).column_means();
                let diff: Vec<f64> = mean_c.iter().zip(&mu).map(|(m, g)| m - g).collect();
                for (rc, s) in scatter.iter_mut().enumerate() {
                    *s += weight * diff[rc / d] * diff[rc % d];
                }
            }
            let eig = symmetric_eigen_f64(d, scatter);
            let k = sup.output_dim();
            let top: Vec<Vec<f64>> =
                (0..k).map(|i| eig.vectors.row(i).iter().map(|&v| v as f64).collect()).collect();
            let nca: Vec<Vec<f64>> =
                (0..k).map(|c| sup.projection.column(c).iter().map(|&v| v as f64).collect()).collect();
            let diff = projector(&top, d)
                .iter()
                .zip(projector(&nca, d))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(diff <= 1e-4, "{name}: projectors differ by {diff:e}");
        }
    }

    #[test]
    fn supervised_projection_leaves_null_directions_zero_when_a_class_is_absent() {
        let task = load_clean("cifar10", SizeScale::Tiny, 7);
        let kept: Vec<usize> = (0..task.train.len()).filter(|&i| task.train.labels[i] != 3).collect();
        let train = task.train.features.select_rows(&kept);
        let labels: Vec<u32> = kept.iter().map(|&i| task.train.labels[i]).collect();
        let sup = SupervisedProjection::fit(&train, &labels, task.num_classes, 16);

        // Nine classes present: eight between-class directions, then null ones.
        assert_eq!(sup.output_dim(), task.num_classes - 1);
        for c in 0..sup.output_dim() {
            let norm = Matrix::row_norm(&sup.projection.column(c));
            let expected = if c < 8 { 1.0 } else { 0.0 };
            assert!((norm - expected).abs() < 1e-4, "column {c} has norm {norm}");
        }
        let out = sup.transform_matrix(&task.test.features);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }
}
