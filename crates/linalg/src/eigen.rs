//! The `k` leading eigen-pairs of a symmetric matrix, at a cost that grows
//! with `k`: Householder tridiagonalisation, eigenvalues by implicit-shift
//! QL, and inverse iteration for the wanted eigenvectors only — the route of
//! LAPACK `dsyevx` (`dsytrd`, `dsterf`, `dstein`, `dormtr`).
//!
//! PCA and the NCA-style supervised projection in `snoopy-embeddings` keep
//! the leading directions of small symmetric matrices: covariance matrices
//! as wide as the feature dimension, and class-mean Gram matrices as wide as
//! the number of classes. For an `n × n` input and `k` wanted pairs:
//!
//! 1. Householder reflections reduce the matrix to a tridiagonal `T = QᵀAQ`
//!    in `4n³/3` flops (EISPACK `tred2`). `Q` is never formed: reflector `i`
//!    stays in row `i` of the work matrix, where the reduction leaves it.
//! 2. Implicit-shift QL sweeps deflate `T` one eigenvalue at a time,
//!    converging cubically (EISPACK `tql2` without its eigenvector
//!    rotations): `O(n²)` flops for all `n` eigenvalues, of which the `k`
//!    largest are kept.
//! 3. Inverse iteration (`dstein`) finds the eigenvector of `T` for each
//!    kept eigenvalue `λ`: one `O(n)` LU factorisation of `T − λI` with
//!    partial pivoting, then `O(n)` solves from a start vector drawn from a
//!    seed derived from the pair's index, until the iterate has grown enough
//!    to certify `λ`, plus two more solves.
//! 4. Each vector `y` maps back to `x = Q·y` through the stored reflectors,
//!    `O(n²)` flops per vector.
//!
//! Eigenvector work is `O(k·n²)`. Forming `Q` and rotating it through every
//! QL sweep, which a full decomposition needs, costs several `n³` flops more
//! (Golub & Van Loan put the full symmetric QR at about `9n³`).
//!
//! **Clusters.** Consecutive eigenvalues that lie within `10⁻³·‖T‖₁` of each
//! other form a cluster (LAPACK's rule). After every solve, a vector is
//! re-orthogonalised (modified Gram–Schmidt) against the earlier vectors of
//! its cluster, and a shift equal to its predecessor's is moved down by
//! `10ε|λ|` so that the factorisations differ. Vectors of different clusters
//! come out orthogonal to working precision on their own, because their
//! eigenvalues are more than `10⁻³·‖T‖₁` apart.
//!
//! **Determinism.** Vector `j` depends only on `λ₀ … λⱼ` and vectors
//! `0 … j−1`, so the rows of a width-`k` solve are the first `k` rows of any
//! wider solve, bit for bit. The eigenvalues come from the same QL iteration
//! on the same tridiagonal matrix for every `k`. An eigenvector's sign is
//! whatever the iteration produces; there is no sign convention.
//!
//! **Guards.** Inverse iteration runs on `T / ‖T‖₁`, and pivots below `ε`
//! are raised to it, so an exact eigenvalue still gives a finite solve. The
//! zero matrix (`‖T‖₁ = 0`) returns the standard basis instead of dividing
//! 0 by 0, and an iterate that collapses to zero, or overflows, after
//! re-orthogonalisation restarts from the next start vector.
//!
//! The cyclic Jacobi method survives as the test oracle
//! (`tests/proptest_eigen.rs`): eigenvalues, residuals, orthonormality and
//! well-separated eigenvectors are checked against it at every `k` on
//! random, repeated-eigenvalue, rank-deficient, diagonal, zero and
//! wide-magnitude matrices.

use crate::matrix::Matrix;
use crate::rng;
use rand::Rng;

/// The leading pairs of a symmetric eigendecomposition: the `k` largest
/// eigenvalues in descending order and the matching unit eigenvectors as the
/// rows of `vectors` (`vectors.row(i)` belongs to `values[i]`).
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// The `k` largest eigenvalues, in descending order.
    pub values: Vec<f64>,
    /// `k × n` eigenvectors, one per row, aligned with `values`.
    pub vectors: Matrix,
}

/// QL iterations allowed per eigenvalue before the solver gives up, as in
/// LAPACK `dsteqr` (and EISPACK `tql2`).
const MAX_QL_ITERATIONS: usize = 30;

/// Inverse-iteration solves per eigenvector before the iterate is accepted
/// as it stands (`dstein`'s `MAXITS`).
const MAX_SOLVES: usize = 5;

/// Solves run after the iterate first passes the growth test (`dstein`'s
/// `EXTRA`).
const EXTRA_SOLVES: usize = 2;

/// Consecutive eigenvalues within this fraction of `‖T‖₁` of each other
/// share a cluster (`dstein`'s `ORTOL`).
const CLUSTER_GAP: f64 = 1e-3;

/// Computes the `k` leading eigen-pairs (`k` clamped to the matrix width) of
/// a symmetric matrix, in `f64` working precision.
///
/// # Panics
/// Panics if the matrix is not square, if an entry is NaN or infinite, if an
/// eigenvalue fails to converge within 30 QL iterations, or if inverse
/// iteration keeps collapsing on an eigenvector.
pub fn symmetric_eigen(matrix: &Matrix, k: usize) -> SymmetricEigen {
    assert_eq!(matrix.rows(), matrix.cols(), "eigendecomposition requires a square matrix");
    symmetric_eigen_f64(matrix.rows(), matrix.data().iter().map(|&v| f64::from(v)).collect(), k)
}

/// [`symmetric_eigen`] on a row-major symmetric `n × n` matrix already held in
/// `f64`, which becomes the solver's work matrix. Callers that assemble the
/// matrix in `f64` keep its low-order bits, e.g. to tell a null direction
/// from a weak one.
///
/// # Panics
/// Panics if `entries.len() != n * n`, if an entry is NaN or infinite, if an
/// eigenvalue fails to converge within 30 QL iterations, or if inverse
/// iteration keeps collapsing on an eigenvector.
pub fn symmetric_eigen_f64(n: usize, mut entries: Vec<f64>, k: usize) -> SymmetricEigen {
    assert_eq!(entries.len(), n * n, "eigendecomposition requires a square matrix");
    // Non-finite entries would never pass QL's deflation test.
    assert!(
        entries.iter().all(|v| v.is_finite()),
        "eigendecomposition requires finite entries (found NaN or infinity)"
    );
    let k = k.min(n);
    if n == 0 {
        return SymmetricEigen { values: Vec::new(), vectors: Matrix::zeros(0, 0) };
    }
    let mut diag = vec![0.0f64; n];
    let mut off = vec![0.0f64; n];
    let scales = tred2(n, &mut entries, &mut diag, &mut off);
    let mut values = diag.clone();
    tql2(&mut values, &mut off.clone());
    values.sort_by(|x, y| y.total_cmp(x));
    values.truncate(k);

    let vectors = tridiagonal_eigenvectors(&diag, &off[..n - 1], &values);
    SymmetricEigen { values, vectors: back_transform(n, &entries, &scales, &vectors) }
}

/// Householder reduction of the symmetric matrix in `w` to tridiagonal form:
/// diagonal `d`, and `e[i]` coupling `i` with `i + 1` (`e[n − 1] = 0`).
///
/// This is EISPACK `tred2` without the accumulation of `Q`, with its matrix
/// stored transposed (the textbook `V[a][b]` lives at `w[b * n + a]`). The
/// reduction leaves reflector `P_i = I − u·uᵀ / h_i`, which acts on
/// coordinates `0..i`, with `u` in `w[i * n..i * n + i]`; the returned vector
/// holds `h_i` at index `i` (`h_i = 0` marks a skipped step, `P_i = I`), and
/// `T = QᵀAQ` with `Q = P_{n−1}·…·P_1`.
fn tred2(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Vec<f64> {
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
            w[i * n..i * n + i].copy_from_slice(&d[..i]);
            symv_upper(w, n, i, d, e);
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

    let scales = d.to_vec();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + j];
    }
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    scales
}

/// [`tred2`]'s symmetric matrix-vector product at width `i`: adds
/// `A·d[..i]` to `e[..i]` (zero on entry) from the upper triangle of the
/// leading `i × i` block of `w`. Row `j` adds `w[j][m]·d[m]` to its own sum
/// for `m ≥ j`, which starts from `e[j]`, and `w[j][m]·d[j]` to `e[m]` for
/// `m > j`; the rows go four at a time through [`symv_rows4`], the rest one
/// by one, in the same order.
fn symv_upper(w: &[f64], n: usize, i: usize, d: &[f64], e: &mut [f64]) {
    let mut j = 0;
    while j + 4 <= i {
        symv_rows4(&w[j * n..(j + 4) * n], n, i, j, d, e);
        j += 4;
    }
    for j in j..i {
        let f = d[j];
        let row = &w[j * n..j * n + i];
        let mut g = e[j] + row[j] * f;
        for ((&v, &dk), ek) in row[j + 1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
            g += v * dk;
            *ek += v * f;
        }
        e[j] = g;
    }
}

/// Rows `j..j + 4` of [`tred2`]'s symmetric matrix-vector product at width
/// `i`, interleaved so that one pass loads each `d[m]` and `e[m]` for all
/// four rows and runs four independent sums. `rows` holds the four rows of
/// the work matrix (`n` wide).
///
/// Every sum keeps the order of four one-row passes: row `j + a` starts from
/// `e[j + a]` after rows `j..j + a` have added to it, then adds
/// `w[j + a][m]·d[m]` for `m` ascending, and each `e[m]` to the right of the
/// rows receives their terms in row order. So `T` and the eigenvalues are
/// bit-equal to the row-at-a-time loop.
fn symv_rows4(rows: &[f64], n: usize, i: usize, j: usize, d: &[f64], e: &mut [f64]) {
    let row = |a: usize| &rows[a * n..a * n + i];
    let (r, f) = ([row(0), row(1), row(2), row(3)], [d[j], d[j + 1], d[j + 2], d[j + 3]]);
    let mut g = [0.0f64; 4];
    // The 4 × 4 triangle on and right of the block's diagonal, row by row.
    for a in 0..4 {
        g[a] = e[j + a] + r[a][j + a] * f[a];
        for c in a + 1..4 {
            g[a] += r[a][j + c] * d[j + c];
            e[j + c] += r[a][j + c] * f[a];
        }
    }
    let [t0, t1, t2, t3] = r.map(|row| &row[j + 4..]);
    let columns = t0.iter().zip(t1).zip(t2.iter().zip(t3));
    for (((&v0, &v1), (&v2, &v3)), (&dm, em)) in columns.zip(d[j + 4..i].iter().zip(&mut e[j + 4..i])) {
        let v = [v0, v1, v2, v3];
        for a in 0..4 {
            g[a] += v[a] * dm;
        }
        for a in 0..4 {
            *em += v[a] * f[a];
        }
    }
    e[j..j + 4].copy_from_slice(&g);
}

/// Implicit-shift QL on the tridiagonal matrix `(d, e)` left by [`tred2`].
/// On return `d` holds the (unsorted) eigenvalues; `e` is destroyed.
///
/// # Panics
/// Panics if an eigenvalue needs more than [`MAX_QL_ITERATIONS`] sweeps.
fn tql2(d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
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

/// `T − σI = P·L·U` for the tridiagonal `T` (diagonal `diag`, off-diagonal
/// `off`), by Gaussian elimination with partial pivoting (LAPACK `dlagtf`).
/// `U` has the diagonal `u0` and two superdiagonals `u1`, `u2`; row swaps are
/// flagged in `swapped`, multipliers kept in `l`. Pivots smaller than `tol`
/// are raised to `±tol`, so solves stay finite when `σ` is an eigenvalue.
struct ShiftedLu {
    u0: Vec<f64>,
    u1: Vec<f64>,
    u2: Vec<f64>,
    l: Vec<f64>,
    swapped: Vec<bool>,
}

impl ShiftedLu {
    fn factor(diag: &[f64], off: &[f64], shift: f64, tol: f64) -> Self {
        let n = diag.len();
        let mut u0: Vec<f64> = diag.iter().map(|&v| v - shift).collect();
        let mut u1 = off.to_vec();
        let mut u2 = vec![0.0f64; n.saturating_sub(2)];
        let mut l = vec![0.0f64; n - 1];
        let mut swapped = vec![false; n - 1];
        for i in 0..n - 1 {
            let below = off[i];
            if below.abs() <= u0[i].abs() {
                if u0[i] != 0.0 {
                    l[i] = below / u0[i];
                    u0[i + 1] -= l[i] * u1[i];
                }
            } else {
                // Swap rows i and i + 1, then eliminate the old row i.
                l[i] = u0[i] / below;
                swapped[i] = true;
                u0[i] = below;
                let next = u0[i + 1];
                u0[i + 1] = u1[i] - l[i] * next;
                if i + 2 < n {
                    u2[i] = u1[i + 1];
                    u1[i + 1] = -l[i] * u2[i];
                }
                u1[i] = next;
            }
        }
        for p in &mut u0 {
            if p.abs() < tol {
                *p = if *p < 0.0 { -tol } else { tol };
            }
        }
        Self { u0, u1, u2, l, swapped }
    }

    /// The last pivot of `U`, which is small when the shift is accurate.
    fn last_pivot(&self) -> f64 {
        self.u0[self.u0.len() - 1]
    }

    /// Overwrites `y` with `(T − σI)⁻¹·y`.
    fn solve(&self, y: &mut [f64]) {
        let n = y.len();
        for i in 0..n - 1 {
            if self.swapped[i] {
                y.swap(i, i + 1);
            }
            y[i + 1] -= self.l[i] * y[i];
        }
        for i in (0..n).rev() {
            let mut v = y[i];
            if i + 1 < n {
                v -= self.u1[i] * y[i + 1];
            }
            if i + 2 < n {
                v -= self.u2[i] * y[i + 2];
            }
            y[i] = v / self.u0[i];
        }
    }
}

/// Fills `y` with draw `draw` of the start vector for eigenvector `index`:
/// uniform in `[−1, 1)`, from a seed fixed by the two numbers alone.
fn start_vector(index: usize, draw: usize, y: &mut [f64]) {
    let mut r = rng::seeded(0x5eed_e16e_0000_0000 ^ ((index as u64) << 8) ^ draw as u64);
    for v in y {
        *v = r.gen_range(-1.0..1.0);
    }
}

/// Unit eigenvectors (`values.len() × n`, row-major) of the symmetric
/// tridiagonal matrix with diagonal `diag` and off-diagonal `off`, one per
/// entry of `values`, which must be eigenvalues of it in descending order.
///
/// # Panics
/// Panics if an iterate collapses to zero (or overflows) on more than
/// [`MAX_SOLVES`] fresh start vectors in a row.
fn tridiagonal_eigenvectors(diag: &[f64], off: &[f64], values: &[f64]) -> Vec<f64> {
    let n = diag.len();
    let mut vectors = vec![0.0f64; values.len() * n];
    let norm = (0..n)
        .map(|i| {
            diag[i].abs()
                + off.get(i).map_or(0.0, |v| v.abs())
                + i.checked_sub(1).map_or(0.0, |p| off[p].abs())
        })
        .fold(0.0f64, f64::max);
    if norm == 0.0 {
        // T = 0: every vector is an eigenvector. Take the standard basis,
        // which also keeps the iteration below from dividing 0 by 0.
        for (j, y) in vectors.chunks_exact_mut(n).enumerate() {
            y[j] = 1.0;
        }
        return vectors;
    }
    // Iterate on T / ‖T‖₁, whose eigenvectors are T's: every tolerance is
    // then relative, and no solve can overflow for lack of scale.
    let diag: Vec<f64> = diag.iter().map(|v| v / norm).collect();
    let off: Vec<f64> = off.iter().map(|v| v / norm).collect();
    let growth_target = (0.1 / n as f64).sqrt();
    let mut cluster_start = 0;
    let mut previous_shift = 0.0f64;
    for (j, &value) in values.iter().enumerate() {
        let mut shift = value / norm;
        if j > 0 {
            // Separate a repeated eigenvalue's shifts so that the solves differ.
            let min_step = 10.0 * f64::EPSILON * shift.abs();
            if previous_shift - shift < min_step {
                shift = previous_shift - min_step;
            }
            if previous_shift - shift > CLUSTER_GAP {
                cluster_start = j;
            }
        }
        previous_shift = shift;
        let lu = ShiftedLu::factor(&diag, &off, shift, f64::EPSILON);
        let (earlier, rest) = vectors.split_at_mut(j * n);
        let cluster = &earlier[cluster_start * n..];
        let y = &mut rest[..n];

        let mut draw = 0;
        start_vector(j, draw, y);
        let (mut solves, mut passes) = (0, 0);
        while solves < MAX_SOLVES && passes <= EXTRA_SOLVES {
            // Scale the right-hand side so that an accurate shift yields an
            // iterate of norm ≥ growth_target (dstein's stopping test).
            let scale = n as f64 * lu.last_pivot().abs() / max_abs(y);
            y.iter_mut().for_each(|v| *v *= scale);
            lu.solve(y);
            for v in cluster.chunks_exact(n) {
                let overlap: f64 = y.iter().zip(v).map(|(a, b)| a * b).sum();
                y.iter_mut().zip(v).for_each(|(a, &b)| *a -= overlap * b);
            }
            let size = max_abs(y);
            if !(size > 0.0 && size.is_finite()) {
                // The iterate held nothing outside the cluster's earlier
                // vectors, or overflowed: start over from a fresh draw.
                draw += 1;
                assert!(draw <= MAX_SOLVES, "inverse iteration collapsed on eigenvector {j} of {n}");
                start_vector(j, draw, y);
                continue;
            }
            solves += 1;
            if size >= growth_target {
                passes += 1;
            }
        }
        let length = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        y.iter_mut().for_each(|v| *v /= length);
    }
    vectors
}

/// The largest magnitude in `v`, or NaN if `v` holds a NaN.
fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| if x.is_nan() || m.is_nan() { f64::NAN } else { m.max(x.abs()) })
}

/// Maps eigenvectors `y` of `T` (the rows of `vectors`, `k × n`) to
/// eigenvectors `x = Q·y` of the reduced matrix, returned as the rows of a
/// `k × n` matrix: applies the reflectors [`tred2`] left in `w`, `P_1` first.
///
/// The vectors are updated in a coordinate-major copy (row `t` holds
/// coordinate `t` of every vector), so each reflector's `k` dot products
/// run side by side in the inner loop rather than as `k` serial chains.
fn back_transform(n: usize, w: &[f64], scales: &[f64], vectors: &[f64]) -> Matrix {
    let k = vectors.len() / n;
    if k == 0 {
        return Matrix::zeros(0, n);
    }
    let mut y = vec![0.0f64; n * k];
    for (v, row) in vectors.chunks_exact(n).enumerate() {
        for (t, &x) in row.iter().enumerate() {
            y[t * k + v] = x;
        }
    }
    let mut g = vec![0.0f64; k];
    for i in 1..n {
        let h = scales[i];
        if h == 0.0 {
            continue;
        }
        let u = &w[i * n..i * n + i];
        g.fill(0.0);
        for (&ut, yt) in u.iter().zip(y.chunks_exact(k)) {
            for (gv, &x) in g.iter_mut().zip(yt) {
                *gv += ut * x;
            }
        }
        g.iter_mut().for_each(|gv| *gv /= h);
        for (&ut, yt) in u.iter().zip(y.chunks_exact_mut(k)) {
            for (x, &gv) in yt.iter_mut().zip(&g) {
                *x -= gv * ut;
            }
        }
    }
    Matrix::from_fn(k, n, |v, t| y[t * k + v] as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn interleaved_symv_equals_the_one_row_loop_bit_for_bit() {
        let mut r = rng::seeded(29);
        for n in 1..=14 {
            for i in 0..n {
                let w: Vec<f64> =
                    (0..n * n).map(|_| rng::normal(&mut r) * 10f64.powi(r.gen_range(-4..4))).collect();
                let d: Vec<f64> = (0..n).map(|_| rng::normal(&mut r)).collect();
                let mut want = vec![0.0f64; n];
                for j in 0..i {
                    let row = &w[j * n..j * n + i];
                    let mut g = want[j] + row[j] * d[j];
                    for m in j + 1..i {
                        g += row[m] * d[m];
                        want[m] += row[m] * d[j];
                    }
                    want[j] = g;
                }
                let mut got = vec![0.0f64; n];
                symv_upper(&w, n, i, &d, &mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n {n} i {i}");
            }
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_sorted_diagonal() {
        let m = Matrix::from_vec(3, 3, vec![2.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0]);
        let eig = symmetric_eigen(&m, m.rows());
        assert!(approx(eig.values[0], 5.0, 1e-9));
        assert!(approx(eig.values[1], 2.0, 1e-9));
        assert!(approx(eig.values[2], 1.0, 1e-9));
    }

    #[test]
    fn known_2x2_eigenpairs() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1 with vectors (1,1)/sqrt2, (1,-1)/sqrt2.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = symmetric_eigen(&m, m.rows());
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
        let eig = symmetric_eigen(&m, m.rows());
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
        let eig = symmetric_eigen(&m, m.rows());
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
        let eig = symmetric_eigen(&m, m.rows());
        let trace: f64 = (0..3).map(|i| m.get(i, i) as f64).sum();
        let sum: f64 = eig.values.iter().sum();
        assert!(approx(trace, sum, 1e-6));
    }

    #[test]
    fn empty_and_scalar_matrices() {
        let eig = symmetric_eigen(&Matrix::zeros(0, 0), 3);
        assert!(eig.values.is_empty());
        assert_eq!(eig.vectors.rows(), 0);
        let eig = symmetric_eigen(&Matrix::from_vec(1, 1, vec![-2.5]), 1);
        assert_eq!(eig.values, vec![-2.5]);
        assert_eq!(eig.vectors.data()[0].abs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        symmetric_eigen(&m, m.rows());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_input() {
        let m = Matrix::from_vec(3, 3, vec![1.0, f32::NAN, 0.0, f32::NAN, 2.0, 0.0, 0.0, 0.0, 3.0]);
        symmetric_eigen(&m, m.rows());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_input() {
        let m = Matrix::from_vec(3, 3, vec![1.0, 0.5, 0.0, 0.5, f32::INFINITY, 0.0, 0.0, 0.0, 3.0]);
        symmetric_eigen(&m, m.rows());
    }
}
