//! Symmetric eigendecomposition: Householder tridiagonalisation followed by
//! the implicit-shift QL algorithm (Golub & Van Loan §8.3; EISPACK
//! `tred2`/`tql2`).
//!
//! PCA and the NCA-style supervised projection in `snoopy-embeddings` need
//! every eigen-pair of small symmetric matrices — covariance matrices as wide
//! as the feature dimension, and class-mean Gram matrices as wide as the
//! number of classes. Householder reflections reduce the matrix to
//! tridiagonal form in `4n³/3` flops and accumulate into an orthogonal
//! basis; QL sweeps with an implicit shift then deflate the tridiagonal
//! matrix one eigenvalue at a time, converging cubically (one or two sweeps
//! per eigenvalue in practice). That keeps the workspace free of LAPACK
//! bindings at a small fraction of a cyclic Jacobi solve's cost.
//!
//! The reflectors are accumulated into the *transpose* of the textbook
//! eigenvector matrix, which is legal because the input is symmetric: every
//! inner loop then walks a contiguous row, and the eigenvectors come out as
//! rows, the layout [`SymmetricEigen`] returns. One `n × n` `f64` work
//! matrix is all the solver allocates besides its output.
//!
//! The cyclic Jacobi method survives as the test oracle
//! (`tests/proptest_eigen.rs`): eigenvalues, residuals, orthonormality and
//! well-separated eigenvectors are checked against it on random, repeated-
//! eigenvalue, rank-deficient, diagonal, zero and wide-magnitude matrices.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition: eigenvalues in descending order
/// and the matching eigenvectors as rows of `vectors` (`vectors.row(i)` is the
/// unit eigenvector for `values[i]`).
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted in descending order.
    pub values: Vec<f64>,
    /// Eigenvectors, one per row, aligned with `values`.
    pub vectors: Matrix,
}

/// QL iterations allowed per eigenvalue before the solver gives up, as in
/// LAPACK `dsteqr` (and EISPACK `tql2`).
const MAX_QL_ITERATIONS: usize = 30;

/// Computes all eigen-pairs of a symmetric matrix, in `f64` working
/// precision.
///
/// # Panics
/// Panics if the matrix is not square, if an entry is NaN or infinite, or if
/// an eigenvalue fails to converge within 30 QL iterations.
pub fn symmetric_eigen(matrix: &Matrix) -> SymmetricEigen {
    assert_eq!(matrix.rows(), matrix.cols(), "eigendecomposition requires a square matrix");
    symmetric_eigen_f64(matrix.rows(), matrix.data().iter().map(|&v| f64::from(v)).collect())
}

/// [`symmetric_eigen`] on a row-major symmetric `n × n` matrix already held in
/// `f64`, which becomes the solver's work matrix. Callers that assemble the
/// matrix in `f64` keep its low-order bits, e.g. to tell a null direction
/// from a weak one.
///
/// # Panics
/// Panics if `entries.len() != n * n`, if an entry is NaN or infinite, or if
/// an eigenvalue fails to converge within 30 QL iterations.
pub fn symmetric_eigen_f64(n: usize, mut entries: Vec<f64>) -> SymmetricEigen {
    assert_eq!(entries.len(), n * n, "eigendecomposition requires a square matrix");
    // Non-finite entries would never pass QL's deflation test.
    assert!(
        entries.iter().all(|v| v.is_finite()),
        "eigendecomposition requires finite entries (found NaN or infinity)"
    );
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    if n > 0 {
        tred2(n, &mut entries, &mut d, &mut e);
        tql2(n, &mut entries, &mut d, &mut e);
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[y].total_cmp(&d[x]));
    let values: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, &i) in order.iter().enumerate() {
        for (out, &v) in vectors.row_mut(row).iter_mut().zip(&entries[i * n..(i + 1) * n]) {
            *out = v as f32;
        }
    }
    SymmetricEigen { values, vectors }
}

/// Householder reduction of the symmetric matrix in `w` to tridiagonal form
/// (diagonal `d`, subdiagonal `e[1..]`), leaving the accumulated orthogonal
/// transformation in `w` with its basis vectors as rows.
///
/// This is EISPACK `tred2` with the eigenvector matrix `V` stored transposed:
/// the textbook `V[a][b]` lives at `w[b * n + a]`.
fn tred2(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let scale: f64 = d[..i].iter().map(|v| v.abs()).sum();
        let mut h = 0.0f64;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Apply the similarity transformation to the remaining rows.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for ((&v, &dk), ek) in row[j + 1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += v * dk;
                    *ek += v * f;
                }
                e[j] = g;
            }
            let mut f = 0.0f64;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n..j * n + i + 1];
                for ((v, &ek), &dk) in row[j..i].iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *v -= f * ek + g * dk;
                }
                d[j] = row[i - 1];
                row[i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        let h = d[i + 1];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..=j * n + i];
                let g: f64 = u.iter().zip(row.iter()).map(|(&a, &b)| a * b).sum();
                for (v, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *v -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal matrix `(d, e)` left by [`tred2`],
/// rotating the rows of `w` along. On return `d` holds the (unsorted)
/// eigenvalues and row `i` of `w` the eigenvector of `d[i]`.
///
/// # Panics
/// Panics if an eigenvalue needs more than [`MAX_QL_ITERATIONS`] sweeps.
fn tql2(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or after `l`.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > eps * tst1 {
            m += 1;
        }
        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        if m > l {
            let mut iterations = 0;
            loop {
                iterations += 1;
                assert!(
                    iterations <= MAX_QL_ITERATIONS,
                    "QL iteration failed to converge on eigenvalue {l} of {n} within {MAX_QL_ITERATIONS} sweeps"
                );
                // Compute the implicit shift.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for di in &mut d[l + 2..] {
                    *di -= h;
                }
                f += h;

                // Implicit QL transformation.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0f64, 1.0f64, 1.0f64);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0f64, 0.0f64);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate the rotation into eigenvector rows i and i + 1.
                    let (head, tail) = w.split_at_mut((i + 1) * n);
                    for (vi, vi1) in head[i * n..].iter_mut().zip(&mut tail[..n]) {
                        let h = *vi1;
                        *vi1 = s * *vi + c * h;
                        *vi = c * *vi - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0]);
        let eig = symmetric_eigen(&m);
        assert!(approx(eig.values[0], 5.0, 1e-9));
        assert!(approx(eig.values[1], 2.0, 1e-9));
        assert!(approx(eig.values[2], 1.0, 1e-9));
    }

    #[test]
    fn known_2x2_eigenpairs() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2, (1,-1)/sqrt2.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&m);
        assert!(approx(eig.values[0], 3.0, 1e-9));
        assert!(approx(eig.values[1], 1.0, 1e-9));
        let v0 = eig.vectors.row(0);
        assert!(approx((v0[0] / v0[1]) as f64, 1.0, 1e-5));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_vec(
            4,
            4,
            vec![
                4.0, 1.0, 0.5, 0.0, //
                1.0, 3.0, 0.2, 0.1, //
                0.5, 0.2, 2.0, 0.3, //
                0.0, 0.1, 0.3, 1.0,
            ],
        );
        let eig = symmetric_eigen(&m);
        for i in 0..4 {
            for j in 0..4 {
                let dot = Matrix::row_dot(eig.vectors.row(i), eig.vectors.row(j)) as f64;
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(approx(dot, expected, 1e-5), "dot({i},{j}) = {dot}");
            }
        }
    }

    #[test]
    fn reconstruction_matches_original() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.4, 0.1, 0.4, 1.5, 0.2, 0.1, 0.2, 1.0]);
        let eig = symmetric_eigen(&m);
        // Reconstruct A = sum_i lambda_i v_i v_i^T.
        let mut recon = Matrix::zeros(3, 3);
        for (i, &lambda) in eig.values.iter().enumerate() {
            let v = eig.vectors.row(i);
            for r in 0..3 {
                for c in 0..3 {
                    let cur = recon.get(r, c);
                    recon.set(r, c, cur + (lambda as f32) * v[r] * v[c]);
                }
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                assert!(approx(recon.get(r, c) as f64, m.get(r, c) as f64, 1e-4));
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let m = Matrix::from_vec(3, 3, vec![3.0, 1.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.5, 1.0]);
        let eig = symmetric_eigen(&m);
        let trace: f64 = (0..3).map(|i| m.get(i, i) as f64).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!(approx(trace, sum, 1e-6));
    }

    #[test]
    fn empty_and_scalar_matrices() {
        let eig = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(eig.values.is_empty());
        assert_eq!(eig.vectors.rows(), 0);
        let eig = symmetric_eigen(&Matrix::from_vec(1, 1, vec![-2.5]));
        assert_eq!(eig.values, vec![-2.5]);
        assert_eq!(eig.vectors.data(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        symmetric_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_input() {
        let m = Matrix::from_vec(3, 3, vec![1.0, f32::NAN, 0.0, f32::NAN, 2.0, 0.0, 0.0, 0.0, 3.0]);
        symmetric_eigen(&m);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_input() {
        let m = Matrix::from_vec(3, 3, vec![1.0, 0.5, 0.0, 0.5, f32::INFINITY, 0.0, 0.0, 0.0, 3.0]);
        symmetric_eigen(&m);
    }
}
