//! Property tests pinning the exactness guarantee of the int8
//! scalar-quantized two-phase scan: the quantized clustered index must stay
//! **bit-identical** to the serial sort-based reference (and hence to the
//! exhaustive engine and the unquantized clustered index) on exactly the
//! inputs where an approximate bound is easiest to get wrong — constant
//! columns (zero scale), mixed extreme magnitudes across dimensions,
//! subnormal coordinates, duplicated rows at distance zero, and the
//! self-excluding leave-one-out mode — for k ∈ {1, 3, 10, len}.

use proptest::prelude::*;
use snoopy_knn::engine::{knn_reference, knn_reference_loo};
use snoopy_knn::{ClusteredIndex, EvalEngine, Metric};
use snoopy_linalg::Matrix;
use snoopy_testutil::{cloud, cloud_with_ties};

fn prunable_metrics() -> [Metric; 2] {
    [Metric::SquaredEuclidean, Metric::Euclidean]
}

/// A deterministic per-dimension magnitude profile: dimension `j` of shape
/// `shape` is scaled by `10^e` with `e` drawn from `{-24, -4, 0, 3}` — mixing
/// subnormal-adjacent, small, unit, and large columns in one dataset so a
/// single affine fit must cope with wildly different scales side by side.
fn column_scale(shape: u64, j: usize) -> f32 {
    match (shape >> (2 * (j % 8))) & 0b11 {
        0 => 1.0e-24, // products underflow to subnormals/zero
        1 => 1.0e-4,
        2 => 1.0,
        _ => 1.0e3,
    }
}

/// Scales each column of `m` by the shape profile and pins `const_cols`
/// columns to a constant (the fitted scale there is exactly zero: every code
/// is 0 and the reconstruction radius must still be exact).
fn apply_columns(m: &Matrix, shape: u64, const_cols: usize) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| {
        if c < const_cols {
            7.25 // exactly representable constant column
        } else {
            m.get(r, c) * column_scale(shape, c)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantized top-k equals the reference across column-scale profiles,
    /// constant columns, duplicate rows, and every k class.
    #[test]
    fn quantized_topk_equals_reference_across_column_profiles(
        seed in 0u64..400,
        n in 1usize..90,
        nlist in 1usize..32,
        shape in 0u64..65536,
        const_cols in 0usize..3,
        threads in 1usize..8,
    ) {
        let (raw_train, _) = cloud_with_ties(seed, n, 5, 3);
        let (raw_test, _) = cloud(seed ^ 0x77, 13, 5, 3);
        let train_x = apply_columns(&raw_train, shape, const_cols);
        let test_x = apply_columns(&raw_test, shape, const_cols);
        let engine = EvalEngine::with_threads(threads);
        for metric in prunable_metrics() {
            let index =
                ClusteredIndex::build_with_engine(train_x.view(), metric, nlist, engine).quantize();
            for k in [1usize, 3, 10, n] {
                let got = index.topk(test_x.view(), k);
                let reference = knn_reference(train_x.view(), test_x.view(), metric, k);
                prop_assert_eq!(got, reference, "metric {} k {} shape {:#x}", metric.name(), k, shape);
            }
        }
    }

    /// Leave-one-out through the int8 phase: row i's list never contains i,
    /// even when duplicate rows tie at approximate distance zero.
    #[test]
    fn quantized_loo_equals_reference(
        seed in 0u64..400,
        n in 2usize..70,
        nlist in 1usize..24,
        shape in 0u64..65536,
    ) {
        let (raw, _) = cloud_with_ties(seed, n, 4, 3);
        let data = apply_columns(&raw, shape, 1);
        for metric in prunable_metrics() {
            let index = ClusteredIndex::build(data.view(), metric, nlist).quantize();
            for k in [1usize, 3, 10, n] {
                let got = index.topk_loo(data.view(), k);
                prop_assert_eq!(&got, &knn_reference_loo(data.view(), metric, k));
                for q in 0..got.num_queries() {
                    prop_assert!(got.neighbors(q).iter().all(|h| h.index != q));
                }
            }
        }
    }
}

/// Deterministic edge shapes the ranges cannot hit exactly: an all-constant
/// dataset (every scale zero, every code zero, approximate distance exactly
/// `‖q − o‖²`), an all-subnormal dataset, and single-row / k = len extremes.
#[test]
fn degenerate_constant_and_subnormal_datasets() {
    for metric in prunable_metrics() {
        // Every row identical: all columns constant, all radii zero.
        let flat = Matrix::from_fn(20, 4, |_, _| 3.5);
        let (queries, _) = cloud(9, 7, 4, 2);
        let index = ClusteredIndex::build(flat.view(), metric, 4).quantize();
        assert!(index.is_quantized());
        assert_eq!(
            index.topk(queries.view(), 20),
            knn_reference(flat.view(), queries.view(), metric, 20),
            "constant dataset, metric {}",
            metric.name()
        );

        // Entirely subnormal coordinates: every squared distance underflows
        // to zero and the lexicographic tie-break decides everything.
        let tiny = Matrix::from_fn(12, 3, |r, c| ((r + c) as f32 - 6.0) * 1.0e-41);
        let index = ClusteredIndex::build(tiny.view(), metric, 3).quantize();
        assert_eq!(
            index.topk_loo(tiny.view(), 5),
            knn_reference_loo(tiny.view(), metric, 5),
            "subnormal dataset, metric {}",
            metric.name()
        );

        // One row, k = len = 1.
        let one = Matrix::from_fn(1, 4, |_, c| c as f32);
        let index = ClusteredIndex::build(one.view(), metric, 8).quantize();
        assert_eq!(
            index.topk(queries.view().slice_rows(0, 3), 1),
            knn_reference(one.view(), queries.view().slice_rows(0, 3), metric, 1)
        );
    }
}
