//! The labelled on-disk dataset: a feature matrix plus its labels sidecar
//! in one directory, opened back as the workspace's universal
//! [`LabeledView`] handshake.
//!
//! `snoopy-linalg`'s [`DiskDataset`] / [`DiskLabels`] define the per-file
//! format and the mmap backing; this module owns the *pairing* convention —
//! fixed file names ([`FEATURES_FILE`], [`LABELS_FILE`]) inside a dataset
//! directory, plus the cross-file consistency check (one label per feature
//! row) that neither file can validate alone. Everything downstream of a
//! [`LabeledView`] (estimators, studies, the kNN engines) runs over the
//! mapped payload without knowing it is disk-backed.

use snoopy_linalg::disk::{DiskDataset, DiskDatasetError, DiskLabels};
use snoopy_linalg::LabeledView;
use std::fmt;
use std::path::Path;

/// File name of the f32 feature matrix inside a dataset directory.
pub const FEATURES_FILE: &str = "features.snpy";
/// File name of the u32 labels sidecar inside a dataset directory.
pub const LABELS_FILE: &str = "labels.snpy";

/// Failure of opening a feature/labels pair.
#[derive(Debug)]
pub enum DiskPairError {
    /// One of the two files failed to open or validate.
    Dataset(DiskDatasetError),
    /// Both files are individually valid but disagree on the row count.
    RowMismatch {
        /// Feature rows.
        features: usize,
        /// Label count.
        labels: usize,
    },
    /// The dataset is valid but too small for a train/eval split, which
    /// needs at least one row on each side.
    TooFewRows {
        /// Rows in the dataset.
        rows: usize,
    },
}

impl fmt::Display for DiskPairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskPairError::Dataset(e) => write!(f, "{e}"),
            DiskPairError::RowMismatch { features, labels } => {
                write!(f, "feature/label row mismatch: {features} feature rows, {labels} labels")
            }
            DiskPairError::TooFewRows { rows } => {
                write!(f, "a train/eval split needs at least 2 rows, the dataset has {rows}")
            }
        }
    }
}

impl std::error::Error for DiskPairError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskPairError::Dataset(e) => Some(e),
            DiskPairError::RowMismatch { .. } | DiskPairError::TooFewRows { .. } => None,
        }
    }
}

impl From<DiskDatasetError> for DiskPairError {
    fn from(e: DiskDatasetError) -> Self {
        DiskPairError::Dataset(e)
    }
}

/// A labelled dataset living on disk: mmap-backed features plus labels,
/// validated as a pair at open.
pub struct DiskLabeledDataset {
    features: DiskDataset,
    labels: DiskLabels,
}

impl DiskLabeledDataset {
    /// Writes `data` into `dir` (created if missing) as the canonical
    /// [`FEATURES_FILE`] + [`LABELS_FILE`] pair.
    pub fn write(dir: &Path, data: &LabeledView<'_>) -> Result<(), DiskPairError> {
        std::fs::create_dir_all(dir).map_err(DiskDatasetError::from)?;
        DiskDataset::write(&dir.join(FEATURES_FILE), data.features())?;
        DiskLabels::write(&dir.join(LABELS_FILE), data.labels(), data.num_classes())?;
        Ok(())
    }

    /// Opens the pair under `dir`, hard-validating each header and the
    /// cross-file row agreement.
    pub fn open(dir: &Path) -> Result<Self, DiskPairError> {
        let features = DiskDataset::open(&dir.join(FEATURES_FILE))?;
        let labels = DiskLabels::open(&dir.join(LABELS_FILE))?;
        if features.rows() != labels.len() {
            return Err(DiskPairError::RowMismatch { features: features.rows(), labels: labels.len() });
        }
        Ok(DiskLabeledDataset { features, labels })
    }

    /// Number of labelled rows.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.features.rows() == 0
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// The class count recorded at write time.
    pub fn num_classes(&self) -> usize {
        self.labels.num_classes()
    }

    /// The zero-copy labelled window over the mapped payloads — the same
    /// handshake an in-memory dataset hands out.
    pub fn view(&self) -> LabeledView<'_> {
        LabeledView::from_parts(self.features.view(), self.labels.labels(), self.labels.num_classes())
    }

    /// Streaming checksum verification of both files (faults every page in;
    /// an explicit integrity opt-in, not part of `open`).
    pub fn verify_checksums(&self) -> Result<(), DiskPairError> {
        self.features.verify_checksum()?;
        self.labels.verify_checksum()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_linalg::Matrix;
    use std::fs;
    use std::path::PathBuf;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("snoopy_pair_{tag}_{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn labelled(n: usize, d: usize, classes: usize) -> (Matrix, Vec<u32>) {
        let m = Matrix::from_fn(n, d, |r, c| ((r * d + c) as f32).cos());
        let y = (0..n as u32).map(|i| i % classes as u32).collect();
        (m, y)
    }

    #[test]
    fn pair_roundtrips_through_labeled_view() {
        let dir = Scratch::new("roundtrip");
        let (m, y) = labelled(50, 6, 4);
        let data = LabeledView::new(&m, &y).with_classes(4);
        DiskLabeledDataset::write(&dir.0, &data).expect("write");
        let disk = DiskLabeledDataset::open(&dir.0).expect("open");
        assert_eq!(disk.len(), 50);
        assert_eq!(disk.dim(), 6);
        assert_eq!(disk.num_classes(), 4);
        let v = disk.view();
        assert_eq!(v.features().data(), data.features().data(), "bit-identical features");
        assert_eq!(v.labels(), data.labels());
        disk.verify_checksums().expect("checksums");
    }

    #[test]
    fn row_mismatch_is_rejected() {
        let dir = Scratch::new("mismatch");
        let (m, y) = labelled(20, 3, 2);
        let data = LabeledView::new(&m, &y).with_classes(2);
        DiskLabeledDataset::write(&dir.0, &data).expect("write");
        // Overwrite the sidecar with one label too few.
        snoopy_linalg::disk::DiskLabels::write(&dir.0.join(LABELS_FILE), &y[..19], 2).expect("short");
        assert!(matches!(
            DiskLabeledDataset::open(&dir.0),
            Err(DiskPairError::RowMismatch { features: 20, labels: 19 })
        ));
    }

    #[test]
    fn missing_files_surface_as_dataset_errors() {
        let dir = Scratch::new("missing");
        fs::create_dir_all(&dir.0).expect("mkdir");
        assert!(matches!(DiskLabeledDataset::open(&dir.0), Err(DiskPairError::Dataset(_))));
    }
}
