//! Property tests of the Householder + implicit-QL eigensolver against the
//! cyclic Jacobi method, kept here as the reference implementation.
//!
//! Jacobi is slow (several `O(n³)` sweeps) but simple enough to trust: every
//! rotation annihilates one off-diagonal entry, and the eigenvalues are read
//! off the converged diagonal. The cases cover random symmetric matrices,
//! repeated eigenvalues, rank-deficient `M·Mᵀ`, diagonal and all-zero
//! matrices, and entries spanning `1e-6` to `1e6`, for `n ∈ 0..=48`.

use proptest::prelude::*;
use rand::Rng;
use snoopy_linalg::eigen::{symmetric_eigen, SymmetricEigen};
use snoopy_linalg::projection::random_orthonormal_map;
use snoopy_linalg::{rng, Matrix};

/// Computes all eigen-pairs of a symmetric matrix with the cyclic Jacobi
/// method.
///
/// `max_sweeps` bounds the number of full upper-triangle sweeps; 50 sweeps is
/// far more than needed for the matrices that arise from covariance of
/// standardised data. Off-diagonal mass below `1e-12` terminates early.
///
/// # Panics
/// Panics if the matrix is not square.
fn jacobi_eigen(matrix: &Matrix, max_sweeps: usize) -> SymmetricEigen {
    assert_eq!(matrix.rows(), matrix.cols(), "eigendecomposition requires a square matrix");
    let n = matrix.rows();
    // Work in f64 for accuracy.
    let mut a: Vec<f64> = matrix.data().iter().map(|&v| v as f64).collect();
    let mut v = vec![0.0f64; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }

    let idx = |r: usize, c: usize| r * n + c;

    for _sweep in 0..max_sweeps {
        let mut off: f64 = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a[idx(p, q)] * a[idx(p, q)];
            }
        }
        if off < 1e-12 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[idx(p, q)];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let app = a[idx(p, p)];
                let aqq = a[idx(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Update matrix A = J^T A J.
                for k in 0..n {
                    let akp = a[idx(k, p)];
                    let akq = a[idx(k, q)];
                    a[idx(k, p)] = c * akp - s * akq;
                    a[idx(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[idx(p, k)];
                    let aqk = a[idx(q, k)];
                    a[idx(p, k)] = c * apk - s * aqk;
                    a[idx(q, k)] = s * apk + c * aqk;
                }
                // Accumulate eigenvectors V = V J (columns of V are vectors).
                for k in 0..n {
                    let vkp = v[idx(k, p)];
                    let vkq = v[idx(k, q)];
                    v[idx(k, p)] = c * vkp - s * vkq;
                    v[idx(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a[idx(i, i)], i)).collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).expect("NaN eigenvalue"));

    let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (row, &(_, col)) in pairs.iter().enumerate() {
        for k in 0..n {
            vectors.set(row, k, v[idx(k, col)] as f32);
        }
    }
    SymmetricEigen { values, vectors }
}

/// The oracle's answer for `a`. Jacobi's stopping test is absolute, so it
/// runs on `a` rescaled by a power of two (exact in `f32`) to a largest entry
/// near `2^20`, where an off-diagonal mass below `1e-12` means entries within
/// about `1e-12` of the largest, and its eigenvalues are scaled back.
fn oracle(a: &Matrix) -> SymmetricEigen {
    let max = a.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max == 0.0 {
        return jacobi_eigen(a, 100);
    }
    let scale = 2.0f32.powi(max.log2().round() as i32 - 20);
    let mut scaled = a.clone();
    scaled.scale(1.0 / scale);
    let mut eig = jacobi_eigen(&scaled, 100);
    for v in &mut eig.values {
        *v *= scale as f64;
    }
    eig
}

/// `Σ_i λ_i q_i q_iᵀ` for orthonormal columns `q_i` of `q` (`n × n`).
fn from_spectrum(q: &Matrix, values: &[f64]) -> Matrix {
    let n = values.len();
    Matrix::from_fn(n, n, |r, c| {
        (0..n).map(|i| values[i] * (q.get(r, i) * q.get(c, i)) as f64).sum::<f64>() as f32
    })
}

/// A symmetric `n × n` test matrix of the given kind, drawn from `seed`.
fn test_matrix(kind: usize, n: usize, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    let symmetric = |mut m: Matrix| {
        for i in 0..n {
            for j in 0..i {
                m.set(i, j, m.get(j, i));
            }
        }
        m
    };
    match kind {
        // Dense random symmetric.
        0 => symmetric(Matrix::from_fn(n, n, |_, _| rng::normal(&mut r) as f32)),
        // Repeated eigenvalues: a random rotation of a spectrum drawn from three values.
        1 => {
            let values: Vec<f64> = (0..n).map(|_| [-2.0, 1.0, 3.0][r.gen_range(0..3usize)]).collect();
            from_spectrum(&random_orthonormal_map(n, n, seed), &values)
        }
        // Rank-deficient M·Mᵀ with M of shape n × rank, rank < n.
        2 => {
            let rank = n / 3;
            let m = Matrix::from_fn(n, rank, |_, _| rng::normal(&mut r) as f32);
            m.matmul(&m.transpose())
        }
        // Diagonal, with a repeated value.
        3 => Matrix::from_fn(n, n, |i, j| {
            if i != j {
                0.0
            } else if i % 4 == 1 {
                2.5
            } else {
                rng::normal(&mut r) as f32
            }
        }),
        // All zero.
        4 => Matrix::zeros(n, n),
        // Entries spanning 1e-6 to 1e6 in magnitude, with random signs.
        5 => symmetric(Matrix::from_fn(n, n, |_, _| {
            let magnitude = 10f64.powf(rng::normal(&mut r).clamp(-3.0, 3.0) * 2.0);
            (magnitude * rng::normal(&mut r).signum()) as f32
        })),
        // A well-conditioned random matrix scaled to 1e-6 .. 1e6 as a whole.
        _ => {
            let scale = 10f64.powf(rng::normal(&mut r).clamp(-3.0, 3.0) * 2.0);
            symmetric(Matrix::from_fn(n, n, |_, _| (rng::normal(&mut r) * scale) as f32))
        }
    }
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn ql_matches_the_jacobi_oracle(kind in 0usize..7, n in 0usize..=48, seed in 0u64..u64::MAX) {
        let a = test_matrix(kind, n, seed);
        let eig = symmetric_eigen(&a);
        let reference = oracle(&a);
        prop_assert_eq!(eig.values.len(), n);
        prop_assert_eq!((eig.vectors.rows(), eig.vectors.cols()), (n, n));
        let max_abs = reference.values.iter().fold(0.0f64, |m, v| m.max(v.abs()));

        // Descending eigenvalues, each within 1e-9·max|λ| of Jacobi's.
        for i in 0..n {
            if i > 0 {
                prop_assert!(eig.values[i - 1] >= eig.values[i], "kind {kind} n {n}: not descending at {i}");
            }
            let err = (eig.values[i] - reference.values[i]).abs();
            prop_assert!(err <= 1e-9 * max_abs, "kind {kind} n {n}: λ{i} off by {err:e} (max|λ| {max_abs:e})");
        }

        for i in 0..n {
            let v = eig.vectors.row(i);
            // Residual ‖Av − λv‖ ≤ 1e-5·max|λ|.
            let residual = (0..n)
                .map(|r| (dot(a.row(r), v) - eig.values[i] * v[r] as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            prop_assert!(residual <= 1e-5 * max_abs, "kind {kind} n {n}: residual {residual:e} for λ{i}");
            // Orthonormal rows.
            for j in 0..=i {
                let expected = if i == j { 1.0 } else { 0.0 };
                let got = dot(v, eig.vectors.row(j));
                prop_assert!((got - expected).abs() <= 1e-5, "kind {kind} n {n}: ⟨v{i}, v{j}⟩ = {got}");
            }
            // Jacobi's eigenvector wherever the eigenvalue is well separated.
            let gap = (0..n)
                .filter(|&j| j != i)
                .map(|j| (eig.values[i] - eig.values[j]).abs())
                .fold(f64::INFINITY, f64::min);
            if gap > 1e-3 * max_abs {
                let cosine = dot(v, reference.vectors.row(i)).abs();
                prop_assert!(cosine >= 1.0 - 1e-5, "kind {kind} n {n}: |⟨v{i}, v_jacobi⟩| = {cosine}");
            }
        }
    }
}
