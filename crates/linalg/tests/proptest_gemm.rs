//! Property tests of the matrix product against the textbook `ikj` loop:
//! every output summed from `+0.0` with `k` ascending over the non-zero
//! `a_ik`. `DatasetView::matmul` sends a row block without zero entries
//! through the register-blocked `kernel::matmul_tile` and the rows of any
//! other block through the zero-skipping loop, so it must equal the oracle
//! bit for bit for every shape, zero pattern and view offset, including
//! right factors with ±∞ and NaN. `Pca::transform` must equal the
//! per-feature centred loop, which adds every term.
//!
//! Shapes straddle the 4 × 8 register block: rows 0..=13, inner 0..=20,
//! columns 0..=27. Left factors have 0, 5, 50 or 100 % zero entries, half of
//! them `-0.0`, or mix zero-free and sparse rows in one block.

use proptest::prelude::*;
use rand::Rng;
use snoopy_linalg::{rng, DatasetView, Matrix, Pca};

/// The `ikj` loop the product is defined by.
fn ikj(a: DatasetView<'_>, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (k, &a_ik) in a.row(i).iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            for (j, &b_kj) in b.row(k).iter().enumerate() {
                out.row_mut(i)[j] += a_ik * b_kj;
            }
        }
    }
    out
}

/// Equal bits, or NaN on both sides (a NaN's payload may depend on which
/// operand the compiled `+` put first).
fn same_bits(got: &Matrix, want: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
    for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()), "entry {i}: {g:e} vs {w:e}");
    }
    Ok(())
}

/// `rows × cols` normal draws scaled over six decades, with each entry
/// replaced by `±0.0` with probability `zero_share` (the share drawn per row
/// when `per_row` is set, so one block mixes zero-free and sparse rows).
fn left_factor(rows: usize, cols: usize, zero_share: f64, per_row: bool, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    let mut m = Matrix::zeros(rows, cols);
    for i in 0..rows {
        let share = if per_row { [0.0, 0.0, 0.05, 0.5, 1.0][r.gen_range(0..5usize)] } else { zero_share };
        for v in m.row_mut(i) {
            *v = if r.gen::<f64>() < share {
                if r.gen::<bool>() {
                    -0.0
                } else {
                    0.0
                }
            } else {
                (rng::normal(&mut r) * 10f64.powi(r.gen_range(-3..3))) as f32
            };
        }
    }
    m
}

/// `rows × cols` normal draws; with `special`, some entries are ±∞ or NaN,
/// which a skipped zero must not turn into NaN.
fn right_factor(rows: usize, cols: usize, special: bool, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed ^ 0xb);
    Matrix::from_fn(rows, cols, |_, _| match r.gen_range(0..20) {
        0 if special => f32::INFINITY,
        1 if special => f32::NEG_INFINITY,
        2 if special => f32::NAN,
        _ => rng::normal(&mut r) as f32,
    })
}

const ZERO_SHARES: [f64; 4] = [0.0, 0.05, 0.5, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Whole matrices, every shape and zero share, finite or special right
    /// factors: the view and the owned product equal the oracle.
    #[test]
    fn product_equals_the_ikj_oracle(
        rows in 0usize..=13,
        inner in 0usize..=20,
        cols in 0usize..=27,
        share in 0usize..4,
        special in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let a = left_factor(rows, inner, ZERO_SHARES[share], false, seed);
        let b = right_factor(inner, cols, special == 1, seed);
        let want = ikj(a.view(), &b);
        same_bits(&a.view().matmul(&b), &want)?;
        same_bits(&a.matmul(&b), &want)?;
    }

    /// Blocks that mix zero-free and sparse rows, viewed from every row
    /// offset, so a row lands in differently aligned blocks: the sub-view's
    /// product equals the oracle on the same rows.
    #[test]
    fn mixed_blocks_and_row_slices_equal_the_ikj_oracle(
        rows in 0usize..=13,
        inner in 0usize..=20,
        cols in 0usize..=27,
        start in 0usize..=13,
        special in 0u32..2,
        seed in 0u64..u64::MAX,
    ) {
        let a = left_factor(rows, inner, 0.0, true, seed);
        let b = right_factor(inner, cols, special == 1, seed);
        let start = start.min(rows);
        for end in start..=rows {
            let view = a.view().slice_rows(start, end);
            same_bits(&view.matmul(&b), &ikj(view, &b))?;
        }
    }

    /// `Pca::transform` on views of fitted and unseen rows (dense, sparse and
    /// signed zeros) equals the per-feature centred loop over the fit's mean
    /// and components, every term included, at the fit's width and a
    /// truncated one.
    #[test]
    fn pca_transform_equals_the_per_feature_centred_loop(
        rows in 0usize..=13,
        d in 1usize..=20,
        k in 1usize..=20,
        share in 0usize..4,
        start in 0usize..=13,
        seed in 0u64..u64::MAX,
    ) {
        let train = left_factor(24, d, 0.05, false, seed ^ 0x7);
        let data = left_factor(rows, d, ZERO_SHARES[share], false, seed);
        let mean: Vec<f32> = train.column_means().iter().map(|&m| m as f32).collect();
        let fitted = Pca::fit(&train, k);
        for pca in [fitted.truncated(k.div_ceil(2)), fitted] {
            for view in [train.view(), data.view().slice_rows(start.min(rows), rows)] {
                let mut want = Matrix::zeros(view.rows(), pca.num_components());
                for r in 0..view.rows() {
                    for (j, (&x, &m)) in view.row(r).iter().zip(&mean).enumerate() {
                        let centred = x - m;
                        for c in 0..pca.num_components() {
                            want.row_mut(r)[c] += centred * pca.components().get(c, j);
                        }
                    }
                }
                same_bits(&pca.transform(view), &want)?;
            }
        }
    }
}
