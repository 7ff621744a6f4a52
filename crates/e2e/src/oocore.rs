//! The out-of-core use case end to end: a dataset too large for the shard
//! budget, written to the versioned disk format, studied through the
//! shard-paged index, and checked bit for bit against the fully-resident
//! answer.
//!
//! The scenario plays the deployment story the format exists for: features
//! and labels land on disk once, every later study memory-maps them and
//! pages cluster shards under a byte budget a quarter of the training
//! payload. The scenario asserts its own correctness while it runs — the
//! budget must actually be exceeded (≥ 2 shard evictions), peak residency
//! must respect the `budget + max_shard` contract, and the paged
//! [`snoopy_core::oocore::OutOfCoreReport`] must match the resident
//! reference bit for bit, estimates included.

use std::path::Path;

use snoopy_core::oocore::{run_oocore_study, run_resident_reference, OutOfCoreConfig};
use snoopy_data::gaussian::{GaussianMixture, GaussianMixtureSpec};
use snoopy_data::DiskLabeledDataset;
use snoopy_linalg::{rng, LabeledView};

/// Outcome of one out-of-core scenario run.
#[derive(Debug, Clone)]
pub struct OocoreRun {
    /// The aggregated (minimum) BER estimate — identical between the paged
    /// and resident runs by the time this struct exists.
    pub min_estimate: f64,
    /// Shards faulted in across the paged study.
    pub shards_faulted: usize,
    /// Shards evicted across the paged study (≥ 2 by assertion).
    pub shards_evicted: usize,
    /// Bytes paged in by faults across the study.
    pub bytes_faulted: usize,
    /// The resident shard budget the study ran under.
    pub budget_bytes: usize,
    /// Peak resident bytes observed (≤ budget + largest shard).
    pub peak_bytes: usize,
    /// Training rows paged from disk.
    pub train_rows: usize,
    /// Evaluation rows.
    pub eval_rows: usize,
}

/// Runs the out-of-core scenario in `dir` (a scratch directory owned by the
/// caller): samples `rows` labelled rows from a 4-class Gaussian mixture,
/// writes them as a [`DiskLabeledDataset`], and studies them under a shard
/// budget of one quarter of the training payload.
///
/// # Panics
/// Panics if the paged study diverges from the resident reference in any
/// bit, if fewer than 2 shards were evicted (the budget wasn't actually
/// binding), or if peak residency exceeds `budget + one shard`.
pub fn run_oocore_scenario(dir: &Path, rows: usize, seed: u64) -> OocoreRun {
    let num_classes = 4;
    let mix = GaussianMixture::from_spec(&GaussianMixtureSpec {
        num_classes,
        latent_dim: 6,
        class_sep: 2.5,
        within_std: 1.0,
        seed,
    });
    let mut r = rng::seeded(seed ^ 0x00c0_4e5e);
    let (x, y) = mix.sample(rows, &mut r);
    DiskLabeledDataset::write(dir, &LabeledView::from_parts(x.view(), &y, num_classes))
        .expect("write disk dataset");

    let eval_rows = (rows / 5).max(1);
    let train_rows = rows - eval_rows;
    let train_payload = train_rows * x.cols() * std::mem::size_of::<f32>();
    let cfg = OutOfCoreConfig {
        // A quarter of the raw training payload: the dataset is ≥ 4× the
        // resident budget, so the study cannot avoid paging.
        shard_budget_bytes: (train_payload / 4).max(1),
        nlist: 8,
        eval_rows,
        ..OutOfCoreConfig::default()
    };

    let paged = run_oocore_study(dir, &cfg).expect("paged study");
    let resident = run_resident_reference(dir, &cfg).expect("resident reference");
    assert_eq!(paged.table, resident.table, "paged table must be bit-identical to resident");
    assert_eq!(paged.estimates, resident.estimates, "estimates must match bit for bit");
    assert!(paged.paging.shards_evicted >= 2, "the budget must force ≥ 2 evictions, got {:?}", paged.paging);
    let rb = paged.residency;
    assert!(
        rb.peak <= rb.budget + rb.max_shard,
        "peak residency {} exceeds budget {} + largest shard {}",
        rb.peak,
        rb.budget,
        rb.max_shard
    );

    OocoreRun {
        min_estimate: paged.min_estimate,
        shards_faulted: paged.paging.shards_faulted,
        shards_evicted: paged.paging.shards_evicted,
        bytes_faulted: paged.paging.bytes_faulted,
        budget_bytes: rb.budget,
        peak_bytes: rb.peak,
        train_rows: paged.train_rows,
        eval_rows: paged.eval_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_testutil::TempDir;

    #[test]
    fn oocore_smoke_pages_and_matches_resident() {
        let dir = TempDir::new("e2e_oocore");
        let run = run_oocore_scenario(dir.path(), 600, 42);
        assert!(run.shards_evicted >= 2);
        // Every eviction victim was admitted by a fault.
        assert!(run.shards_faulted >= run.shards_evicted);
        // Every resident byte was paged in by a fault.
        assert!(run.peak_bytes <= run.budget_bytes + run.bytes_faulted);
        assert!((0.0..=1.0).contains(&run.min_estimate));
        assert_eq!(run.train_rows + run.eval_rows, 600);
    }
}
