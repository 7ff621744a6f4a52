//! Property tests of [`Matrix::covariance`] against the naive two-pass
//! formula: centre every entry by its column mean, sum the products in `f64`
//! row by row, divide by `n − 1`.
//!
//! `covariance` centres only the columns that are non-zero in more than half
//! of the rows and sums over non-zero entries. On an all-dense matrix that is
//! the naive arithmetic exactly, so the result must match bit for bit; on
//! sparse, mixed and degenerate inputs it must match to `1e-6` of the largest
//! entry. The inputs: dense, 2–20 % non-zero, dense columns near `1e3 ± 1`
//! beside sparse ones, constant (zero and non-zero) columns, and 0, 1 and 2
//! rows.

use proptest::prelude::*;
use rand::Rng;
use snoopy_linalg::{rng, Matrix};

/// The two-pass sample covariance, stored as `f32`.
fn naive_covariance(x: &Matrix) -> Matrix {
    let (n, d) = (x.rows(), x.cols());
    let mut means = vec![0.0f64; d];
    for r in 0..n {
        for (m, &v) in means.iter_mut().zip(x.row(r)) {
            *m += v as f64;
        }
    }
    means.iter_mut().for_each(|m| *m /= n.max(1) as f64);
    let mut sums = vec![0.0f64; d * d];
    for r in 0..n {
        let row = x.row(r);
        for i in 0..d {
            for j in i..d {
                sums[i * d + j] += (row[i] as f64 - means[i]) * (row[j] as f64 - means[j]);
            }
        }
    }
    let denom = (n.max(2) - 1) as f64;
    Matrix::from_fn(d, d, |i, j| (sums[i.min(j) * d + i.max(j)] / denom) as f32)
}

/// An `n × d` test matrix of the given kind, drawn from `seed`.
fn test_matrix(kind: usize, n: usize, d: usize, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    let density = r.gen_range(0.02..0.2);
    let sparse =
        |r: &mut rand::rngs::StdRng| if r.gen_bool(density) { r.gen_range(0.1f32..3.0) } else { 0.0 };
    match kind {
        // Dense: every entry non-zero, every third column around 1e3 ± 1.
        0 => Matrix::from_fn(n, d, |_, c| (if c % 3 == 0 { 1e3 } else { 0.0 } + rng::normal(&mut r)) as f32),
        // Sparse, term-frequency-like: 2–20 % non-zero, positive.
        1 => Matrix::from_fn(n, d, |_, _| sparse(&mut r)),
        // Mixed: even columns dense around 1e3 ± 1, odd columns sparse.
        2 => Matrix::from_fn(n, d, |_, c| {
            if c % 2 == 0 {
                (1e3 + rng::normal(&mut r)) as f32
            } else {
                sparse(&mut r)
            }
        }),
        // Constant columns (zero and non-zero) among dense and sparse ones.
        _ => Matrix::from_fn(n, d, |_, c| match c % 4 {
            0 => 0.0,
            1 => 0.1 + c as f32,
            2 => rng::normal(&mut r) as f32,
            _ => sparse(&mut r),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn covariance_matches_the_two_pass_formula(
        kind in 0usize..4,
        rows in 0usize..=72,
        d in 1usize..=24,
        seed in 0u64..u64::MAX,
    ) {
        // One case in six has 0, 1 or 2 rows.
        let n = if rows < 12 { rows % 3 } else { rows };
        let x = test_matrix(kind, n, d, seed);
        let (got, want) = (x.covariance(), naive_covariance(&x));
        let all_dense = (0..d).all(|c| 2 * (0..n).filter(|&r| x.get(r, c) != 0.0).count() > n);
        if all_dense {
            let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "kind {} n {} d {}: dense input must match bit for bit", kind, n, d);
        } else {
            let max = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
                prop_assert!(
                    (g - w).abs() <= 1e-6 * max,
                    "kind {kind} n {n} d {d}: entry ({}, {}) is {g}, two-pass {w} (max |entry| {max})",
                    i / d,
                    i % d
                );
            }
        }
    }
}
