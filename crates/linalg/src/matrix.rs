//! Row-major dense matrix of `f32` values.
//!
//! Feature matrices in Snoopy are *n × d* with one sample per row. `f32` is
//! used for storage (halving memory traffic during nearest-neighbour search)
//! while reductions that need numerical headroom accumulate in `f64`.

use std::fmt;

/// A dense, row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} does not match {}x{}", data.len(), rows, cols);
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally long rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix has zero entries in either dimension.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns column `c` as an owned vector.
    pub fn column(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns a new matrix consisting of the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Returns the sub-matrix of rows `[start, end)`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.rows);
        Matrix::from_vec(end - start, self.cols, self.data[start * self.cols..end * self.cols].to_vec())
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        self.view().vstack(&other.view())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`, by
    /// [`DatasetView::matmul`](crate::view::DatasetView::matmul) over the
    /// whole matrix: row blocks without zeros go through the register-blocked
    /// [`matmul_tile`](crate::kernel::matmul_tile), bit-identical to the
    /// `ikj` loop. Accumulation happens in `f32`, which is sufficient for the
    /// moderate dimensions used in the workspace.
    ///
    /// # Panics
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.view().matmul(other)
    }

    /// Applies a linear map given as a `d_in × d_out` matrix to every row:
    /// the result is `n × d_out`.
    pub fn project(&self, map: &Matrix) -> Matrix {
        self.matmul(map)
    }

    /// Per-column mean as an `f64` vector.
    pub fn column_means(&self) -> Vec<f64> {
        self.view().column_means()
    }

    /// Per-column (population) standard deviation.
    pub fn column_stds(&self) -> Vec<f64> {
        self.view().column_stds()
    }

    /// Sample covariance matrix (`d × d`, `f64` accumulation, stored as `f32`).
    ///
    /// Sums the second moment of the shifted entries `x − c` over each row's
    /// non-zero ones, then subtracts `n·(μ − c)(μ − c)ᵀ` once. The shift `c_j`
    /// is column `j`'s mean if the column is non-zero in more than half of the
    /// rows, and 0 otherwise:
    /// * dense columns are centred as in the two-pass formula, and an
    ///   all-dense matrix gets its arithmetic bit for bit: the skipped terms
    ///   are zeros and the correction is exactly 0;
    /// * sparse columns, such as term frequencies, keep their zeros, so a row
    ///   costs the square of its non-zero count rather than `d²`. Such a
    ///   column has `|μ| ≤ σ`, so subtracting its mean afterwards cannot
    ///   cancel catastrophically.
    pub fn covariance(&self) -> Matrix {
        let (n, d) = (self.rows, self.cols);
        let means = self.column_means();
        let mut nonzero = vec![0usize; d];
        for row in self.rows_iter() {
            for (count, &x) in nonzero.iter_mut().zip(row) {
                *count += usize::from(x != 0.0);
            }
        }
        let shift: Vec<f64> = means
            .iter()
            .zip(&nonzero)
            .map(|(&mean, &count)| if 2 * count > n { mean } else { 0.0 })
            .collect();

        let mut moment = vec![0.0f64; d * d];
        let mut shifted = vec![0.0f64; d];
        let mut support: Vec<usize> = Vec::with_capacity(d);
        for row in self.rows_iter() {
            support.clear();
            for (j, ((y, &x), &c)) in shifted.iter_mut().zip(row).zip(&shift).enumerate() {
                *y = x as f64 - c;
                if *y != 0.0 {
                    support.push(j);
                }
            }
            if 2 * support.len() > d {
                // A dense row: contiguous updates vectorise, and the zero
                // products they add change no sum.
                for (i, &yi) in shifted.iter().enumerate() {
                    for (m, &yj) in moment[i * d + i..(i + 1) * d].iter_mut().zip(&shifted[i..]) {
                        *m += yi * yj;
                    }
                }
            } else {
                for (a, &i) in support.iter().enumerate() {
                    let (yi, out) = (shifted[i], &mut moment[i * d..(i + 1) * d]);
                    for &j in &support[a..] {
                        out[j] += yi * shifted[j];
                    }
                }
            }
        }

        let offset: Vec<f64> = means.iter().zip(&shift).map(|(mean, c)| mean - c).collect();
        let denom = (n.max(2) - 1) as f64;
        let mut out = Matrix::zeros(d, d);
        for i in 0..d {
            for j in i..d {
                let v = ((moment[i * d + j] - n as f64 * offset[i] * offset[j]) / denom) as f32;
                out.set(i, j, v);
                out.set(j, i, v);
            }
        }
        out
    }

    /// Squared Euclidean distance between two rows of possibly different matrices.
    #[inline]
    pub fn row_sq_dist(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(b) {
            let d = x - y;
            acc += d * d;
        }
        acc
    }

    /// Dot product of two row slices.
    #[inline]
    pub fn row_dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Euclidean norm of a row slice.
    #[inline]
    pub fn row_norm(a: &[f32]) -> f32 {
        Self::row_dot(a, a).sqrt()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Adds `other` scaled by `alpha` in place (`self += alpha * other`).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every entry by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Appends a constant-one column (bias feature) and returns the new matrix.
    pub fn with_bias_column(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.set(r, self.cols, 1.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_panics_on_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_fn_and_identity() {
        let m = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(m, Matrix::identity(3));
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 0.0, 9.0]);
        let id = Matrix::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn column_statistics() {
        let m = Matrix::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let means = m.column_means();
        assert!((means[0] - 2.5).abs() < 1e-9);
        assert!((means[1] - 25.0).abs() < 1e-9);
        let stds = m.column_stds();
        assert!((stds[0] - 1.118_033_988_7).abs() < 1e-6);
    }

    #[test]
    fn covariance_of_independent_columns_is_diagonalish() {
        let m = Matrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, -1.0, 3.0, 1.0, 4.0, -1.0]);
        let cov = m.covariance();
        assert!((cov.get(0, 0) - 1.666_67).abs() < 1e-3);
        assert!((cov.get(1, 1) - 1.333_33).abs() < 1e-3);
        assert_eq!(cov.get(0, 1), cov.get(1, 0));
    }

    #[test]
    fn select_and_slice_rows() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        let sl = m.slice_rows(1, 3);
        assert_eq!(sl.rows(), 2);
        assert_eq!(sl.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn row_helpers() {
        let a = [0.0f32, 3.0];
        let b = [4.0f32, 0.0];
        assert_eq!(Matrix::row_sq_dist(&a, &b), 25.0);
        assert_eq!(Matrix::row_dot(&a, &b), 0.0);
        assert_eq!(Matrix::row_norm(&a), 3.0);
    }

    #[test]
    fn axpy_scale_and_bias_column() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
        let wb = a.with_bias_column();
        assert_eq!(wb.cols(), 3);
        assert_eq!(wb.get(0, 2), 1.0);
    }

    #[test]
    fn frobenius_norm_matches_hand_value() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
