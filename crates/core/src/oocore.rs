//! Out-of-core feasibility studies: the full estimator pipeline over a
//! dataset that lives on disk and never fully materialises in memory.
//!
//! The study opens a [`DiskLabeledDataset`] directory (features + labels in
//! the versioned `snpy` format), holds out the trailing rows as the
//! evaluation split, and computes the shared neighbour table through the
//! shard-paged [`ShardedIndex`]: training rows stay in the memory-mapped
//! file, clusters materialise as independently evictable shards under a
//! configurable resident byte budget, and the triangle-inequality prune
//! order doubles as the paging order so bound-rejected clusters are never
//! faulted in at all. The resulting [`NeighborTable`] — and therefore every
//! estimate derived from it — is **bit-identical** to a fully-resident run;
//! the budget trades only time, never answers.
//!
//! Two pieces of the study run on `snoopy-pool` workers, off the scanning
//! thread: the index's shard **prefetch pipeline**
//! ([`OutOfCoreConfig::prefetch_depth`]) overlaps upcoming shard
//! materialisation with the current scan, and the FNV-1a **checksum
//! verification** of both payload files re-hashes the dataset concurrently
//! with the study — its verdict is awaited before any result is surfaced,
//! so a poisoned dataset fails loud
//! ([`snoopy_linalg::disk::DiskDatasetError::ChecksumMismatch`]) instead of
//! silently feeding corrupt rows into the estimators.

use std::path::Path;
use std::sync::Arc;

use snoopy_data::{DiskLabeledDataset, DiskPairError};
use snoopy_estimators::{default_estimators, estimate_all_with_table, shared_table_k};
use snoopy_knn::Metric;
pub use snoopy_knn::{NeighborTable, PagedResidentBytes, PagingStats, ShardedIndex};
use snoopy_linalg::LabeledView;

/// Knobs of an out-of-core study. All sizes are bytes of shard payload
/// (gathered f32 rows + per-row metadata + optional int8 shadow).
#[derive(Debug, Clone, Copy)]
pub struct OutOfCoreConfig {
    /// Resident shard budget. Peak residency is bounded by
    /// `budget + max_shard × (1 + prefetch_depth)`: the shard being scanned
    /// plus up to `prefetch_depth` staged ones; see [`PagedResidentBytes`].
    pub shard_budget_bytes: usize,
    /// k-means cluster count — equivalently the shard count before
    /// empty-cluster pruning.
    pub nlist: usize,
    /// Trailing rows held out as the evaluation split (clamped so at least
    /// one training row remains).
    pub eval_rows: usize,
    /// Attach the per-shard int8 shadow: visited shards scan at about one
    /// byte per dimension with exact f32 re-ranking (identical table).
    pub quantize: bool,
    /// Prefetch pipeline depth `P`: up to `P` upcoming shards materialise
    /// on pool workers while the current one scans. 0 restores the fully
    /// serial fault→scan loop; results are bit-identical at every depth.
    /// Widens peak residency to `budget + max_shard × (1 + P)`.
    pub prefetch_depth: usize,
}

impl Default for OutOfCoreConfig {
    fn default() -> Self {
        OutOfCoreConfig {
            shard_budget_bytes: 8 << 20,
            nlist: 16,
            eval_rows: 256,
            quantize: false,
            prefetch_depth: 2,
        }
    }
}

/// What an out-of-core study produced, alongside the paging behaviour that
/// produced it.
#[derive(Debug, Clone)]
pub struct OutOfCoreReport {
    /// The shared neighbour table of the eval split against the training
    /// split — bit-identical to a fully-resident computation.
    pub table: NeighborTable,
    /// One BER estimate per [`default_estimators`] entry, in order.
    pub estimates: Vec<f64>,
    /// The aggregated (minimum) BER estimate — the paper's feasibility
    /// signal.
    pub min_estimate: f64,
    /// Shards faulted/evicted and bytes paged while computing the table.
    pub paging: PagingStats,
    /// Residency accounting: budget, peak, and largest shard.
    pub residency: PagedResidentBytes,
    /// Training rows scanned out of core.
    pub train_rows: usize,
    /// Evaluation rows.
    pub eval_rows: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Label classes.
    pub num_classes: usize,
}

/// Runs the default-estimator feasibility study over the disk dataset at
/// `dir`, paging training shards under `cfg.shard_budget_bytes`. The FNV-1a
/// payload checksums of both files verify on a pool worker concurrently
/// with the study; a mismatch surfaces as
/// [`snoopy_linalg::disk::DiskDatasetError::ChecksumMismatch`] (wrapped in
/// [`DiskPairError::Dataset`]) before any result is returned. A dataset
/// with fewer than two rows (no train/eval split exists) is
/// [`DiskPairError::TooFewRows`].
pub fn run_oocore_study(dir: &Path, cfg: &OutOfCoreConfig) -> Result<OutOfCoreReport, DiskPairError> {
    let dataset = Arc::new(open_splittable(dir)?);
    // Integrity off the fault path: re-hashing faults every page in, so it
    // runs concurrently with the study instead of serialising in front of
    // it. The verdict gates the return below.
    let verify = {
        let dataset = Arc::clone(&dataset);
        snoopy_pool::spawn(move || dataset.verify_checksums())
    };
    let full = dataset.view();
    let n = full.features().rows();
    let eval_rows = cfg.eval_rows.clamp(1, n - 1);
    let train_rows = n - eval_rows;

    let train_x = full.features().slice_rows(0, train_rows);
    let eval_x = full.features().slice_rows(train_rows, n);
    let train = LabeledView::from_parts(train_x, &full.labels()[..train_rows], full.num_classes());
    let eval = LabeledView::from_parts(eval_x, &full.labels()[train_rows..], full.num_classes());

    let estimators = default_estimators();
    let k = shared_table_k(&estimators).max(1);
    let mut index = ShardedIndex::build(train_x, Metric::SquaredEuclidean, cfg.nlist, cfg.shard_budget_bytes)
        .with_prefetch_depth(cfg.prefetch_depth);
    if cfg.quantize {
        index = index.quantize();
    }
    let table = index.topk(eval_x, k);
    let estimates = estimate_all_with_table(&estimators, &table, &train, &eval, full.num_classes());
    let min_estimate = estimates.iter().copied().fold(f64::INFINITY, f64::min);

    // Fail loud on a poisoned dataset before surfacing anything derived
    // from its bytes.
    verify.join()?;

    Ok(OutOfCoreReport {
        table,
        estimates,
        min_estimate,
        paging: index.paging_stats(),
        residency: index.resident_bytes(),
        train_rows,
        eval_rows,
        dim: full.features().cols(),
        num_classes: full.num_classes(),
    })
}

/// The fully-resident reference for [`run_oocore_study`]: same split, same
/// estimators, but the shared table comes from the in-memory engine. Exists
/// so parity tests and benches state "paged == resident" in one call, and
/// fails the same way on a dataset too small to split.
///
/// The table goes through [`snoopy_estimators::shared_neighbor_table`], so
/// [`snoopy_knn::EvalBackend::auto_for`] picks its backend: at the usual
/// out-of-core shapes (a few hundred eval rows) that is the exhaustive
/// engine, since so few queries cannot amortise a k-means build. "Paged ==
/// resident" then compares the paged cluster scan against an independent
/// code path rather than against a second cluster scan.
pub fn run_resident_reference(dir: &Path, cfg: &OutOfCoreConfig) -> Result<OutOfCoreReport, DiskPairError> {
    let dataset = open_splittable(dir)?;
    let full = dataset.view();
    let n = full.features().rows();
    let eval_rows = cfg.eval_rows.clamp(1, n - 1);
    let train_rows = n - eval_rows;

    // Materialise both splits as owned matrices — the "everything fits"
    // baseline the paged run is measured against.
    let train_m = full.features().slice_rows(0, train_rows).to_matrix();
    let eval_m = full.features().slice_rows(train_rows, n).to_matrix();
    let train = LabeledView::from_parts(train_m.view(), &full.labels()[..train_rows], full.num_classes());
    let eval = LabeledView::from_parts(eval_m.view(), &full.labels()[train_rows..], full.num_classes());

    let estimators = default_estimators();
    let k = shared_table_k(&estimators).max(1);
    let table = snoopy_estimators::shared_neighbor_table(train_m.view(), eval_m.view(), k);
    let estimates = estimate_all_with_table(&estimators, &table, &train, &eval, full.num_classes());
    let min_estimate = estimates.iter().copied().fold(f64::INFINITY, f64::min);

    Ok(OutOfCoreReport {
        table,
        estimates,
        min_estimate,
        paging: PagingStats::default(),
        residency: PagedResidentBytes::default(),
        train_rows,
        eval_rows,
        dim: full.features().cols(),
        num_classes: full.num_classes(),
    })
}

/// Opens the dataset at `dir`, refusing one with fewer than two rows: a
/// study holds out at least one eval row and trains on at least one.
fn open_splittable(dir: &Path) -> Result<DiskLabeledDataset, DiskPairError> {
    let dataset = DiskLabeledDataset::open(dir)?;
    if dataset.len() < 2 {
        return Err(DiskPairError::TooFewRows { rows: dataset.len() });
    }
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_data::disk::DiskLabeledDataset;
    use snoopy_testutil::{cloud_with_ties, TempDir};

    fn write_dataset(dir: &Path, seed: u64, n: usize, d: usize) {
        let (x, y) = cloud_with_ties(seed, n, d, 4);
        let view = LabeledView::from_parts(x.view(), &y, 4);
        DiskLabeledDataset::write(dir, &view).expect("write dataset");
    }

    #[test]
    fn paged_study_matches_resident_reference_bit_for_bit() {
        let dir = TempDir::new("oocore_core");
        write_dataset(dir.path(), 11, 400, 8);
        // Budget ≈ a quarter of the training payload: forces real paging.
        let cfg = OutOfCoreConfig {
            shard_budget_bytes: (300 * 8 * 4) / 4,
            nlist: 8,
            eval_rows: 100,
            ..OutOfCoreConfig::default()
        };
        let paged = run_oocore_study(dir.path(), &cfg).expect("paged study");
        let resident = run_resident_reference(dir.path(), &cfg).expect("resident study");
        assert_eq!(paged.table, resident.table);
        assert_eq!(paged.estimates, resident.estimates);
        assert_eq!(paged.min_estimate, resident.min_estimate);
        assert!(paged.paging.shards_evicted >= 1, "budget should force eviction: {:?}", paged.paging);
        let rb = paged.residency;
        let allowance = rb.max_shard * (1 + cfg.prefetch_depth);
        assert!(rb.peak <= rb.budget + allowance, "residency contract: {rb:?}");
    }

    #[test]
    fn prefetch_depths_agree_with_the_serial_study() {
        let dir = TempDir::new("oocore_core_pf");
        write_dataset(dir.path(), 17, 400, 8);
        let base = OutOfCoreConfig {
            shard_budget_bytes: (300 * 8 * 4) / 4,
            nlist: 8,
            eval_rows: 100,
            ..OutOfCoreConfig::default()
        };
        let serial = run_oocore_study(dir.path(), &OutOfCoreConfig { prefetch_depth: 0, ..base })
            .expect("serial study");
        for depth in [1usize, 4] {
            let piped = run_oocore_study(dir.path(), &OutOfCoreConfig { prefetch_depth: depth, ..base })
                .expect("piped study");
            assert_eq!(piped.table, serial.table, "depth {depth}");
            assert_eq!(piped.estimates, serial.estimates, "depth {depth}");
            assert_eq!(
                piped.paging.shards_faulted + piped.paging.prefetch_committed,
                serial.paging.shards_faulted,
                "depth {depth}: {:?}",
                piped.paging
            );
        }
    }

    #[test]
    fn corrupt_payload_fails_loud_with_checksum_mismatch() {
        use snoopy_linalg::disk::DiskDatasetError;

        let dir = TempDir::new("oocore_poison");
        write_dataset(dir.path(), 29, 200, 6);
        // Flip one payload byte past the 64-byte header: the file still
        // opens (header intact) but the background re-hash must catch it.
        let path = dir.path().join(snoopy_data::disk::FEATURES_FILE);
        let mut bytes = std::fs::read(&path).expect("read features");
        bytes[64 + 5] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite features");
        let err = run_oocore_study(dir.path(), &OutOfCoreConfig::default())
            .expect_err("poisoned dataset must fail");
        assert!(
            matches!(
                err,
                DiskPairError::Dataset(DiskDatasetError::ChecksumMismatch { expected, actual })
                    if expected != actual
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn quantized_paged_study_is_still_bit_identical() {
        let dir = TempDir::new("oocore_core_q");
        write_dataset(dir.path(), 23, 300, 6);
        let cfg = OutOfCoreConfig {
            shard_budget_bytes: 4 * 1024,
            nlist: 6,
            eval_rows: 60,
            quantize: true,
            ..OutOfCoreConfig::default()
        };
        let paged = run_oocore_study(dir.path(), &cfg).expect("paged study");
        let resident = run_resident_reference(dir.path(), &cfg).expect("resident study");
        assert_eq!(paged.table, resident.table);
        assert_eq!(paged.estimates, resident.estimates);
    }

    #[test]
    fn datasets_too_small_to_split_are_a_typed_error() {
        type Study = fn(&Path, &OutOfCoreConfig) -> Result<OutOfCoreReport, DiskPairError>;
        for rows in [0usize, 1] {
            let dir = TempDir::new("oocore_too_few");
            write_dataset(dir.path(), 3, rows, 4);
            for study in [run_oocore_study as Study, run_resident_reference] {
                let err = study(dir.path(), &OutOfCoreConfig::default()).expect_err("no split exists");
                assert!(matches!(err, DiskPairError::TooFewRows { rows: r } if r == rows), "{err:?}");
            }
        }
    }

    #[test]
    fn eval_rows_is_clamped_to_leave_training_data() {
        let dir = TempDir::new("oocore_clamp");
        write_dataset(dir.path(), 5, 20, 3);
        let cfg = OutOfCoreConfig { eval_rows: 999, nlist: 2, ..OutOfCoreConfig::default() };
        let report = run_oocore_study(dir.path(), &cfg).expect("study");
        assert_eq!(report.train_rows, 1);
        assert_eq!(report.eval_rows, 19);
    }
}
