//! Property tests pinning the exactness guarantee of the int8
//! scalar-quantized two-phase scan: the quantized [`ShardedIndex`] must stay
//! **bit-identical** to the serial sort-based reference (and hence to the
//! exhaustive engine and the unquantized index) on exactly the inputs where
//! an approximate bound is easiest to get wrong — constant columns (zero
//! scale), mixed extreme magnitudes across dimensions, subnormal
//! coordinates, and duplicated rows at distance zero (the training rows
//! queried against themselves) — for k ∈ {1, 3, 10, len}, at an unbounded
//! budget and at a two-shard budget (every re-faulted shard re-encodes
//! against the one frozen quantizer).

use proptest::prelude::*;
use snoopy_knn::engine::knn_reference;
use snoopy_knn::{Metric, ShardedIndex};
use snoopy_linalg::{DatasetView, Matrix};
use snoopy_testutil::{cloud, cloud_with_ties};

fn prunable_metrics() -> [Metric; 2] {
    [Metric::SquaredEuclidean, Metric::Euclidean]
}

/// The unbounded budget and a budget of about two shards' f32 rows.
fn budgets(data: DatasetView<'_>, nlist: usize) -> [usize; 2] {
    let shard_rows = data.rows().div_ceil(nlist.clamp(1, data.rows().max(1)));
    [usize::MAX, 2 * shard_rows * data.cols() * size_of::<f32>()]
}

/// A quantized index over `data` (the quantizer must accept it).
fn quantized(data: DatasetView<'_>, metric: Metric, nlist: usize, budget: usize) -> ShardedIndex<'_> {
    let index = ShardedIndex::build(data, metric, nlist, budget).quantize();
    assert!(index.is_quantized(), "sane data must accept the int8 shadow");
    index
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
    /// constant columns, duplicate rows, and every k class — also for the
    /// training rows queried against themselves, where duplicates tie at
    /// distance zero and resolve to the lowest index.
    #[test]
    fn quantized_topk_equals_reference_across_column_profiles(
        seed in 0u64..400,
        n in 1usize..90,
        nlist in 1usize..32,
        shape in 0u64..65536,
        const_cols in 0usize..3,
    ) {
        let (raw_train, _) = cloud_with_ties(seed, n, 5, 3);
        let (raw_test, _) = cloud(seed ^ 0x77, 13, 5, 3);
        let train_x = apply_columns(&raw_train, shape, const_cols);
        let test_x = apply_columns(&raw_test, shape, const_cols);
        for metric in prunable_metrics() {
            for budget in budgets(train_x.view(), nlist) {
                let mut index = quantized(train_x.view(), metric, nlist, budget);
                for k in [1usize, 3, 10, n] {
                    for queries in [test_x.view(), train_x.view()] {
                        let got = index.topk(queries, k);
                        let reference = knn_reference(train_x.view(), queries, metric, k);
                        prop_assert_eq!(
                            got, reference, "metric {} k {} shape {:#x} budget {} queries {}",
                            metric.name(), k, shape, budget, queries.rows()
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic edge shapes the ranges cannot hit exactly: an all-constant
/// dataset (every scale zero, every code zero, approximate distance exactly
/// `‖q − o‖²`), an all-subnormal dataset (at a zero budget, so every visit
/// re-encodes its shard), and single-row / k = len extremes.
#[test]
fn degenerate_constant_and_subnormal_datasets() {
    for metric in prunable_metrics() {
        // Every row identical: all columns constant, all radii zero.
        let flat = Matrix::from_fn(20, 4, |_, _| 3.5);
        let (queries, _) = cloud(9, 7, 4, 2);
        let mut index = quantized(flat.view(), metric, 4, usize::MAX);
        assert_eq!(
            index.topk(queries.view(), 20),
            knn_reference(flat.view(), queries.view(), metric, 20),
            "constant dataset, metric {}",
            metric.name()
        );

        // Entirely subnormal coordinates: every squared distance underflows
        // to zero and the lexicographic tie-break decides everything.
        let tiny = Matrix::from_fn(12, 3, |r, c| ((r + c) as f32 - 6.0) * 1.0e-41);
        let mut index = quantized(tiny.view(), metric, 3, 0);
        assert_eq!(
            index.topk(tiny.view(), 5),
            knn_reference(tiny.view(), tiny.view(), metric, 5),
            "subnormal dataset, metric {}",
            metric.name()
        );

        // One row, k = len = 1.
        let one = Matrix::from_fn(1, 4, |_, c| c as f32);
        let mut index = quantized(one.view(), metric, 8, usize::MAX);
        assert_eq!(
            index.topk(queries.view().slice_rows(0, 3), 1),
            knn_reference(one.view(), queries.view().slice_rows(0, 3), metric, 1)
        );
    }
}
