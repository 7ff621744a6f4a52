//! Zero-copy dataset views shared by the whole workspace.
//!
//! Every layer of Snoopy used to invent its own data handshake: the
//! estimators carried a private labelled-view struct, the kNN crate took raw
//! `Matrix` + label-slice pairs, and the scheduler re-sliced (and copied)
//! feature matrices batch by batch. [`DatasetView`] and [`LabeledView`] are
//! the single shared abstraction: borrowed, row-contiguous windows over a
//! [`Matrix`] (plus labels and class count for the labelled variant) with
//! cheap O(1) split / prefix / batch operations. Consumers materialise an
//! owned [`Matrix`] only when they genuinely need one (e.g. pooling two
//! samples for an MST).

use crate::kernel;
use crate::matrix::Matrix;

/// A borrowed, row-contiguous `rows × cols` window over feature data.
///
/// Copyable and O(1) to slice; no feature data is ever cloned.
#[derive(Clone, Copy, PartialEq)]
pub struct DatasetView<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl std::fmt::Debug for DatasetView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DatasetView({}x{})", self.rows, self.cols)
    }
}

impl<'a> DatasetView<'a> {
    /// Views an entire matrix.
    pub fn from_matrix(m: &'a Matrix) -> Self {
        Self { data: m.data(), rows: m.rows(), cols: m.cols() }
    }

    /// Views a raw row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_raw(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} does not match {rows}x{cols}", data.len());
        Self { data, rows, cols }
    }

    /// Views a single feature vector as a one-row dataset (e.g. to push one
    /// query through a batch kernel).
    pub fn from_row(row: &'a [f32]) -> Self {
        Self { data: row, rows: 1, cols: row.len() }
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature dimension).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the view covers zero rows or columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The underlying row-major buffer of the viewed window.
    #[inline]
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Row `r` as a slice borrowing from the underlying matrix.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &'a [f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Zero-copy sub-view of rows `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > rows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> DatasetView<'a> {
        assert!(
            start <= end && end <= self.rows,
            "row slice {start}..{end} out of bounds for {} rows",
            self.rows
        );
        DatasetView {
            data: &self.data[start * self.cols..end * self.cols],
            rows: end - start,
            cols: self.cols,
        }
    }

    /// Zero-copy prefix of the first `n` rows (clamped to the view length).
    pub fn prefix(&self, n: usize) -> DatasetView<'a> {
        self.slice_rows(0, n.min(self.rows))
    }

    /// Splits the view into `[0, mid)` and `[mid, rows)` without copying.
    pub fn split_at(&self, mid: usize) -> (DatasetView<'a>, DatasetView<'a>) {
        (self.slice_rows(0, mid), self.slice_rows(mid, self.rows))
    }

    /// Iterator over consecutive row batches of at most `batch` rows; the
    /// final batch may be shorter. `batch` is clamped to at least 1.
    pub fn batches(&self, batch: usize) -> impl Iterator<Item = DatasetView<'a>> + '_ {
        let batch = batch.max(1);
        let n = self.rows;
        let view = *self;
        (0..n.div_ceil(batch)).map(move |i| view.slice_rows(i * batch, ((i + 1) * batch).min(n)))
    }

    /// Materialises the viewed window as an owned matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
    }

    /// Materialises the selected rows (a gather; necessarily a copy).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Materialises every `stride`-th row starting from row 0 (deterministic
    /// subsample; a copy). `stride` is clamped to at least 1.
    pub fn subsample_stride(&self, stride: usize) -> Matrix {
        let keep: Vec<usize> = (0..self.rows).step_by(stride.max(1)).collect();
        self.select_rows(&keep)
    }

    /// Vertically stacks this view on top of `other` into an owned matrix.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &DatasetView<'_>) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack requires equal column counts");
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(self.data);
        data.extend_from_slice(other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Matrix product `view * other` (an `n × d` view times a `d × k`
    /// matrix), mirroring [`Matrix::matmul`].
    ///
    /// Output `(i, j)` is the `f32` sum, from `+0.0` with `k` ascending, of
    /// `a_ik · b_kj` over the non-zero `a_ik`. The rows go in blocks of
    /// [`ROW_BLOCK`](crate::kernel::ROW_BLOCK): a block without a zero entry
    /// (`-0.0` counts as zero) goes through the register-blocked
    /// [`kernel::matmul_tile`], and every row of any other block adds the
    /// products of its non-zero entries only, one row of `other` at a time,
    /// which is what keeps term-frequency rows (mostly zeros) cheap. Both
    /// paths add the same products in the same order, so the result does not
    /// depend on how the rows fall into blocks.
    ///
    /// # Panics
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows(), "matmul dimension mismatch");
        let (inner, cols) = (self.cols, other.cols());
        let mut out = Matrix::zeros(self.rows, cols);
        if inner == 0 || cols == 0 {
            return out;
        }
        let blocks = self.data.chunks(kernel::ROW_BLOCK * inner);
        for (a, o) in blocks.zip(out.data_mut().chunks_mut(kernel::ROW_BLOCK * cols)) {
            if !a.contains(&0.0) {
                kernel::matmul_tile(a, other.data(), inner, cols, o);
                continue;
            }
            for (a_row, out_row) in a.chunks_exact(inner).zip(o.chunks_exact_mut(cols)) {
                for (&a_ik, b_row) in a_row.iter().zip(other.rows_iter()) {
                    if a_ik != 0.0 {
                        for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                            *o += a_ik * b_kj;
                        }
                    }
                }
            }
        }
        out
    }

    /// Per-column mean as an `f64` vector.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0f64; self.cols];
        for row in self.rows_iter() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Per-column (population) standard deviation.
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        let mut vars = vec![0.0f64; self.cols];
        for row in self.rows_iter() {
            for ((v, &x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let n = self.rows.max(1) as f64;
        vars.iter().map(|v| (v / n).sqrt()).collect()
    }
}

impl Matrix {
    /// A zero-copy view over the whole matrix.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::from_matrix(self)
    }
}

impl<'a> From<&'a Matrix> for DatasetView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

/// A borrowed labelled sample: features, aligned labels, and the class count.
///
/// This is the one handshake every consumer of labelled data speaks — the
/// kNN indexes, the Bayes-error estimators, the feasibility study, and the
/// experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct LabeledView<'a> {
    features: DatasetView<'a>,
    labels: &'a [u32],
    num_classes: usize,
}

impl<'a> LabeledView<'a> {
    /// Creates a view over a full matrix with an unspecified class count
    /// (recorded as 0; use [`LabeledView::with_classes`] when known).
    ///
    /// # Panics
    /// Panics if features and labels disagree in length.
    pub fn new(features: &'a Matrix, labels: &'a [u32]) -> Self {
        Self::from_parts(features.view(), labels, 0)
    }

    /// Creates a view from an existing feature view plus labels.
    ///
    /// # Panics
    /// Panics if features and labels disagree in length.
    pub fn from_parts(features: DatasetView<'a>, labels: &'a [u32], num_classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "feature/label count mismatch");
        Self { features, labels, num_classes }
    }

    /// Returns the same view annotated with an explicit class count.
    pub fn with_classes(mut self, num_classes: usize) -> Self {
        self.num_classes = num_classes;
        self
    }

    /// The feature window.
    #[inline]
    pub fn features(&self) -> DatasetView<'a> {
        self.features
    }

    /// The labels aligned with the feature rows.
    #[inline]
    pub fn labels(&self) -> &'a [u32] {
        self.labels
    }

    /// The class count `C = |Y|` (0 when unspecified at construction).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Label of sample `i`.
    #[inline]
    pub fn label(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Zero-copy sub-view of samples `[start, end)`.
    pub fn slice(&self, start: usize, end: usize) -> LabeledView<'a> {
        LabeledView {
            features: self.features.slice_rows(start, end),
            labels: &self.labels[start..end],
            num_classes: self.num_classes,
        }
    }

    /// Zero-copy prefix of the first `n` samples (clamped).
    pub fn prefix(&self, n: usize) -> LabeledView<'a> {
        self.slice(0, n.min(self.len()))
    }

    /// Splits into `[0, mid)` and `[mid, len)` without copying.
    pub fn split_at(&self, mid: usize) -> (LabeledView<'a>, LabeledView<'a>) {
        (self.slice(0, mid), self.slice(mid, self.len()))
    }

    /// Iterator over consecutive batches of at most `batch` samples.
    pub fn batches(&self, batch: usize) -> impl Iterator<Item = LabeledView<'a>> + '_ {
        let batch = batch.max(1);
        let n = self.len();
        let view = *self;
        (0..n.div_ceil(batch)).map(move |i| view.slice(i * batch, ((i + 1) * batch).min(n)))
    }

    /// Size of the label space actually used: `max(label) + 1` (0 when
    /// empty). Useful for sizing vote/count vectors when the view was built
    /// without an explicit class count; NOT a distinct-class count.
    pub fn observed_classes(&self) -> usize {
        self.labels.iter().map(|&y| y as usize + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_matrix() -> Matrix {
        Matrix::from_fn(6, 3, |r, c| (r * 10 + c) as f32)
    }

    #[test]
    fn view_accessors_mirror_matrix() {
        let m = sample_matrix();
        let v = m.view();
        assert_eq!(v.rows(), 6);
        assert_eq!(v.cols(), 3);
        assert_eq!(v.row(2), m.row(2));
        assert_eq!(v.get(4, 1), m.get(4, 1));
        assert_eq!(v.to_matrix(), m);
        assert!(!v.is_empty());
    }

    #[test]
    fn slicing_is_zero_copy_and_consistent() {
        let m = sample_matrix();
        let v = m.view().slice_rows(1, 5);
        assert_eq!(v.rows(), 4);
        assert_eq!(v.row(0), m.row(1));
        // The slice's buffer points into the parent's allocation.
        assert_eq!(v.data().as_ptr(), m.row(1).as_ptr());
        let (a, b) = v.split_at(2);
        assert_eq!(a.row(1), m.row(2));
        assert_eq!(b.row(0), m.row(3));
    }

    #[test]
    fn from_row_views_one_query() {
        let m = sample_matrix();
        let v = DatasetView::from_row(m.row(3));
        assert_eq!(v.rows(), 1);
        assert_eq!(v.cols(), 3);
        assert_eq!(v.row(0), m.row(3));
        assert_eq!(v.data().as_ptr(), m.row(3).as_ptr());
    }

    #[test]
    fn batches_cover_all_rows_in_order() {
        let m = sample_matrix();
        let batches: Vec<_> = m.view().batches(4).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].rows(), 4);
        assert_eq!(batches[1].rows(), 2);
        assert_eq!(batches[1].row(1), m.row(5));
    }

    #[test]
    fn gather_and_stride_subsample() {
        let m = sample_matrix();
        let picked = m.view().select_rows(&[5, 0]);
        assert_eq!(picked.row(0), m.row(5));
        let strided = m.view().subsample_stride(3);
        assert_eq!(strided.rows(), 2);
        assert_eq!(strided.row(1), m.row(3));
    }

    #[test]
    fn vstack_and_column_stats_match_matrix() {
        let m = sample_matrix();
        let v = m.view();
        let stacked = v.slice_rows(0, 2).vstack(&v.slice_rows(4, 6));
        assert_eq!(stacked.rows(), 4);
        assert_eq!(stacked.row(3), m.row(5));
        assert_eq!(v.column_means(), m.column_means());
        assert_eq!(v.column_stds(), m.column_stds());
    }

    #[test]
    fn labeled_view_slices_labels_and_features_together() {
        let m = sample_matrix();
        let labels = vec![0u32, 1, 2, 0, 1, 2];
        let v = LabeledView::new(&m, &labels).with_classes(3);
        assert_eq!(v.num_classes(), 3);
        assert_eq!(v.len(), 6);
        assert_eq!(v.dim(), 3);
        let s = v.slice(2, 5);
        assert_eq!(s.labels(), &[2, 0, 1]);
        assert_eq!(s.features().row(0), m.row(2));
        assert_eq!(s.num_classes(), 3);
        let batches: Vec<_> = v.batches(4).collect();
        assert_eq!(batches[1].labels(), &[1, 2]);
        assert_eq!(v.observed_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        let m = sample_matrix();
        let labels = vec![0u32; 3];
        let _ = LabeledView::new(&m, &labels);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let m = sample_matrix();
        let _ = m.view().slice_rows(2, 9);
    }
}
