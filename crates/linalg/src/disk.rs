//! Out-of-core dataset backing: a versioned on-disk format plus an
//! mmap-backed [`DiskDataset`] that hands out the exact same zero-copy
//! [`DatasetView`] windows as an in-memory [`crate::Matrix`].
//!
//! ## Format
//!
//! A file is a fixed 64-byte header followed by the raw row-major payload
//! (`f32` features or `u32` labels, native byte order):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SNPYDSET"
//!      8     4  format version (currently 1)
//!     12     4  endianness tag 0x01020304 — a file written on a
//!               foreign-endian machine reads back as 0x04030201
//!     16     8  rows (u64)
//!     24     8  cols (u64; 1 for label files)
//!     32     8  FNV-1a 64 checksum of the payload bytes
//!     40     4  element kind: 0 = f32 features, 1 = u32 labels
//!     44     4  extra: num_classes for label files, 0 for features
//!     48    16  zero padding (reserves room for future fields)
//! ```
//!
//! The header is 64 bytes — a multiple of every element alignment — so a
//! page-aligned `mmap` base puts the payload on an `f32`/`u32` boundary by
//! construction (debug-asserted at every view).
//!
//! ## Validation contract
//!
//! [`DiskDataset::open`] / [`DiskLabels::open`] *never* return a garbage
//! view: wrong magic, an unknown version, a foreign-endian file, the wrong
//! element kind, a payload whose byte length disagrees with the header, or
//! a label outside the header's class count all fail with the matching
//! [`DiskDatasetError`] variant ([`DiskLabels::write`] refuses such a label
//! too). Labels are checked at open because every consumer indexes per-class
//! arrays by them and reads all of them anyway (four bytes a row). The
//! feature payload checksum is deliberately **not** verified at open (that
//! would fault every page of a dataset whose whole point is lazy paging) —
//! callers that want end-to-end integrity run
//! [`DiskDataset::verify_checksum`], one streaming pass.
//!
//! ## Backing
//!
//! On Unix the payload is memory-mapped read-only (`PROT_READ`,
//! `MAP_PRIVATE`) through a minimal raw-syscall wrapper — the crate's one
//! `unsafe` code besides the three AVX2 dispatch calls in
//! [`kernel`](crate::kernel) — so views page in on demand and the OS
//! evicts cold pages under memory pressure. Elsewhere the payload is read
//! into an owned buffer (same API, eager residency).

use crate::view::DatasetView;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// First 8 bytes of every Snoopy disk-dataset file.
pub const MAGIC: [u8; 8] = *b"SNPYDSET";
/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;
/// Endianness probe: reads back byte-reversed on a foreign-endian machine.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// Header length in bytes; also the payload offset. A multiple of the page
/// and element alignments, so mapped payloads are element-aligned.
pub const HEADER_LEN: usize = 64;

const KIND_F32: u32 = 0;
const KIND_U32_LABELS: u32 = 1;

/// Typed failure of opening or validating a disk dataset. Every variant
/// means "no view was produced" — the open path never hands out a window
/// over bytes it could not vouch for.
#[derive(Debug)]
pub enum DiskDatasetError {
    /// Underlying filesystem or mapping failure.
    Io(std::io::Error),
    /// The first 8 bytes are not [`MAGIC`] — not a Snoopy dataset file.
    BadMagic([u8; 8]),
    /// A format version this build does not understand.
    UnsupportedVersion(u32),
    /// The endianness tag read back as something other than [`ENDIAN_TAG`]:
    /// the file was written on a machine with different byte order.
    ForeignEndianness(u32),
    /// The header is valid but describes the other element kind (e.g. a
    /// labels sidecar opened as a feature matrix).
    WrongKind {
        /// Kind the caller asked for.
        expected: u32,
        /// Kind the header declares.
        found: u32,
    },
    /// `rows × cols × elem_size` overflows — the header is corrupt.
    ImplausibleShape {
        /// Row count the header declares.
        rows: u64,
        /// Column count the header declares.
        cols: u64,
    },
    /// The file's byte length disagrees with the header's shape.
    Truncated {
        /// Bytes the header implies (header + payload).
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload hash does not match the header checksum (only produced
    /// by the explicit `verify_checksum` pass).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// A label at or above the class count of its labels file, which would
    /// index past every per-class array downstream.
    LabelOutOfRange {
        /// Position of the first offending label.
        row: usize,
        /// The offending label.
        label: u32,
        /// The class count the header declares (or the writer was given).
        num_classes: usize,
    },
}

impl fmt::Display for DiskDatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskDatasetError::Io(e) => write!(f, "disk dataset I/O error: {e}"),
            DiskDatasetError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not a Snoopy dataset file)"),
            DiskDatasetError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DiskDatasetError::ForeignEndianness(tag) => {
                write!(f, "endianness tag {tag:#010x} (file written on a foreign-endian machine)")
            }
            DiskDatasetError::WrongKind { expected, found } => {
                write!(f, "wrong element kind: expected {expected}, found {found}")
            }
            DiskDatasetError::ImplausibleShape { rows, cols } => {
                write!(f, "implausible shape {rows} x {cols} (payload size overflows)")
            }
            DiskDatasetError::Truncated { expected, actual } => {
                write!(f, "truncated file: header implies {expected} bytes, found {actual}")
            }
            DiskDatasetError::ChecksumMismatch { expected, actual } => {
                write!(f, "payload checksum mismatch: header {expected:#018x}, payload {actual:#018x}")
            }
            DiskDatasetError::LabelOutOfRange { row, label, num_classes } => {
                write!(
                    f,
                    "label {label} at row {row} is outside the {num_classes} classes of the labels file"
                )
            }
        }
    }
}

impl std::error::Error for DiskDatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskDatasetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DiskDatasetError {
    fn from(e: std::io::Error) -> Self {
        DiskDatasetError::Io(e)
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and byte-order oblivious since it
/// hashes the payload in file order.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Parsed, validated header fields.
struct Header {
    rows: usize,
    cols: usize,
    checksum: u64,
    extra: u32,
}

fn encode_header(rows: u64, cols: u64, checksum: u64, kind: u32, extra: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..8].copy_from_slice(&MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_ne_bytes());
    h[12..16].copy_from_slice(&ENDIAN_TAG.to_ne_bytes());
    h[16..24].copy_from_slice(&rows.to_ne_bytes());
    h[24..32].copy_from_slice(&cols.to_ne_bytes());
    h[32..40].copy_from_slice(&checksum.to_ne_bytes());
    h[40..44].copy_from_slice(&kind.to_ne_bytes());
    h[44..48].copy_from_slice(&extra.to_ne_bytes());
    h
}

/// Validates a raw header against the expected element kind and the actual
/// file length (`elem_size` bytes per element), in the order an archaeologist
/// would want the failure reported: identity, version, byte order, kind,
/// then shape.
fn decode_header(
    h: &[u8; HEADER_LEN],
    expected_kind: u32,
    elem_size: u64,
    file_len: u64,
) -> Result<Header, DiskDatasetError> {
    let u32_at = |o: usize| u32::from_ne_bytes(h[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_ne_bytes(h[o..o + 8].try_into().expect("8 bytes"));
    if h[0..8] != MAGIC {
        return Err(DiskDatasetError::BadMagic(h[0..8].try_into().expect("8 bytes")));
    }
    let version = u32_at(8);
    if version != FORMAT_VERSION {
        return Err(DiskDatasetError::UnsupportedVersion(version));
    }
    let endian = u32_at(12);
    if endian != ENDIAN_TAG {
        return Err(DiskDatasetError::ForeignEndianness(endian));
    }
    let kind = u32_at(40);
    if kind != expected_kind {
        return Err(DiskDatasetError::WrongKind { expected: expected_kind, found: kind });
    }
    let (rows, cols) = (u64_at(16), u64_at(24));
    let payload = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(elem_size))
        .and_then(|n| n.checked_add(HEADER_LEN as u64))
        .filter(|&n| n <= usize::MAX as u64)
        .ok_or(DiskDatasetError::ImplausibleShape { rows, cols })?;
    if payload != file_len {
        return Err(DiskDatasetError::Truncated { expected: payload, actual: file_len });
    }
    Ok(Header { rows: rows as usize, cols: cols as usize, checksum: u64_at(32), extra: u32_at(44) })
}

/// Reads the 64-byte header and reports the file length.
fn read_header(file: &mut File) -> Result<([u8; HEADER_LEN], u64), DiskDatasetError> {
    let len = file.metadata()?.len();
    if len < HEADER_LEN as u64 {
        return Err(DiskDatasetError::Truncated { expected: HEADER_LEN as u64, actual: len });
    }
    let mut h = [0u8; HEADER_LEN];
    file.read_exact(&mut h)?;
    Ok((h, len))
}

/// Minimal read-only `mmap` wrapper over raw syscalls — no `libc`
/// dependency, `PROT_READ` + `MAP_PRIVATE` only. The mapping covers the
/// whole file (header included) and is unmapped on drop.
#[cfg(unix)]
mod mapping {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::raw::c_int;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// A live read-only mapping of an entire file.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is read-only and owned: sharing a `&Mmap` across threads
    // is no different from sharing a `&[u8]`.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` starting at offset 0. `len` must be
        /// non-zero (zero-length mappings are an `EINVAL` by spec).
        pub fn map(file: &File, len: usize) -> std::io::Result<Mmap> {
            assert!(len > 0, "cannot map an empty file");
            // SAFETY: a fresh anonymous-address read-only private mapping of
            // a file we hold open; failure is reported as MAP_FAILED (-1).
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, held until drop. MAP_PRIVATE keeps concurrent file
            // writers from mutating our pages underneath us.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact range this struct mapped.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Reinterprets the payload region of a whole-file mapping as a `T` slice,
/// debug-asserting the alignment the format guarantees (page-aligned base +
/// 64-byte header ⇒ element-aligned payload).
#[cfg(unix)]
fn payload_as<T>(bytes: &[u8], count: usize) -> &[T] {
    let payload = &bytes[HEADER_LEN..];
    debug_assert_eq!(payload.len(), count * size_of::<T>(), "header/payload length mismatch");
    debug_assert_eq!(
        payload.as_ptr() as usize % align_of::<T>(),
        0,
        "mmap payload must be element-aligned (page-aligned base + 64-byte header)"
    );
    // SAFETY: length and alignment checked above; T is a plain number type
    // (f32/u32) for which any bit pattern is valid.
    unsafe { std::slice::from_raw_parts(payload.as_ptr() as *const T, count) }
}

/// Views a native-endian scalar slice as its raw bytes — the bulk inverse
/// of [`payload_as`]. Writing and hashing the payload through one slice
/// produces byte-for-byte what per-element `to_ne_bytes` loops did, while
/// letting `write_all` and the checksum walk the buffer without a
/// 4-bytes-at-a-time call per element.
fn payload_bytes<T>(data: &[T]) -> &[u8] {
    // SAFETY: T is a plain number type (f32/u32) whose every byte is
    // initialised; the length covers exactly the slice's memory.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

enum F32Backing {
    #[cfg(unix)]
    Mapped(mapping::Mmap),
    Owned(Vec<f32>),
}

enum U32Backing {
    #[cfg(unix)]
    Mapped(mapping::Mmap),
    Owned(Vec<u32>),
}

/// A read-only, disk-backed `rows × cols` f32 feature matrix. Opening
/// validates the header hard (see the [module docs](self)); the payload
/// itself pages in lazily through the OS on Unix.
///
/// [`DiskDataset::view`] hands out the same zero-copy [`DatasetView`] an
/// in-memory [`crate::Matrix`] does, so every downstream consumer — the
/// kernels, the kNN engines, the estimators — is oblivious to the backing.
pub struct DiskDataset {
    backing: F32Backing,
    rows: usize,
    cols: usize,
    checksum: u64,
}

impl DiskDataset {
    /// Writes `data` to `path` in the format of the [module docs](self),
    /// checksum included. Overwrites an existing file.
    pub fn write(path: &Path, data: DatasetView<'_>) -> Result<(), DiskDatasetError> {
        let payload = payload_bytes(data.data());
        let mut hash = Fnv1a::new();
        hash.update(payload);
        let header = encode_header(data.rows() as u64, data.cols() as u64, hash.finish(), KIND_F32, 0);
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&header)?;
        out.write_all(payload)?;
        out.flush()?;
        Ok(())
    }

    /// Opens and hard-validates `path`. On Unix the payload is memory-mapped
    /// (lazy residency); elsewhere it is read into an owned buffer. The
    /// checksum is *not* verified here — see [`DiskDataset::verify_checksum`].
    pub fn open(path: &Path) -> Result<Self, DiskDatasetError> {
        let mut file = File::open(path)?;
        let (raw, file_len) = read_header(&mut file)?;
        let h = decode_header(&raw, KIND_F32, size_of::<f32>() as u64, file_len)?;
        let count = h.rows * h.cols;
        let backing = if count == 0 {
            F32Backing::Owned(Vec::new())
        } else {
            open_f32_backing(&mut file, file_len as usize, count)?
        };
        Ok(DiskDataset { backing, rows: h.rows, cols: h.cols, checksum: h.checksum })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The payload checksum recorded in the header.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    fn floats(&self) -> &[f32] {
        match &self.backing {
            #[cfg(unix)]
            F32Backing::Mapped(m) => payload_as::<f32>(m.bytes(), self.rows * self.cols),
            F32Backing::Owned(v) => v,
        }
    }

    /// The zero-copy window over the (possibly memory-mapped) payload —
    /// indistinguishable from a [`crate::Matrix`] view downstream.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::from_raw(self.floats(), self.rows, self.cols)
    }

    /// One streaming pass re-hashing the payload against the header
    /// checksum. Faults every page in, so this is an explicit opt-in rather
    /// than part of [`DiskDataset::open`].
    pub fn verify_checksum(&self) -> Result<(), DiskDatasetError> {
        let mut hash = Fnv1a::new();
        hash.update(payload_bytes(self.floats()));
        let actual = hash.finish();
        if actual != self.checksum {
            return Err(DiskDatasetError::ChecksumMismatch { expected: self.checksum, actual });
        }
        Ok(())
    }
}

#[cfg(unix)]
fn open_f32_backing(file: &mut File, file_len: usize, _count: usize) -> Result<F32Backing, DiskDatasetError> {
    Ok(F32Backing::Mapped(mapping::Mmap::map(file, file_len)?))
}

#[cfg(not(unix))]
fn open_f32_backing(file: &mut File, _file_len: usize, count: usize) -> Result<F32Backing, DiskDatasetError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut v = Vec::with_capacity(count);
    for chunk in bytes.chunks_exact(size_of::<f32>()) {
        v.push(f32::from_ne_bytes(chunk.try_into().expect("4 bytes")));
    }
    Ok(F32Backing::Owned(v))
}

/// The labels sidecar: a read-only, disk-backed `u32` label vector with the
/// class count carried in the header's extra field. Same format, same
/// validation contract, same lazy mapping as [`DiskDataset`].
pub struct DiskLabels {
    backing: U32Backing,
    len: usize,
    num_classes: usize,
    checksum: u64,
}

impl DiskLabels {
    /// Writes `labels` (with its class count) to `path`. A label
    /// `≥ num_classes` is refused with
    /// [`DiskDatasetError::LabelOutOfRange`] before any file is created.
    pub fn write(path: &Path, labels: &[u32], num_classes: usize) -> Result<(), DiskDatasetError> {
        check_labels(labels, num_classes)?;
        let payload = payload_bytes(labels);
        let mut hash = Fnv1a::new();
        hash.update(payload);
        let header =
            encode_header(labels.len() as u64, 1, hash.finish(), KIND_U32_LABELS, num_classes as u32);
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&header)?;
        out.write_all(payload)?;
        out.flush()?;
        Ok(())
    }

    /// Opens and hard-validates a labels sidecar, every label included: one
    /// outside the header's class count is
    /// [`DiskDatasetError::LabelOutOfRange`].
    pub fn open(path: &Path) -> Result<Self, DiskDatasetError> {
        let mut file = File::open(path)?;
        let (raw, file_len) = read_header(&mut file)?;
        let h = decode_header(&raw, KIND_U32_LABELS, size_of::<u32>() as u64, file_len)?;
        let count = h.rows * h.cols;
        let backing = if count == 0 {
            U32Backing::Owned(Vec::new())
        } else {
            open_u32_backing(&mut file, file_len as usize, count)?
        };
        let labels = DiskLabels { backing, len: count, num_classes: h.extra as usize, checksum: h.checksum };
        check_labels(labels.labels(), labels.num_classes)?;
        Ok(labels)
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sidecar is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The class count recorded at write time.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The (possibly memory-mapped) labels.
    pub fn labels(&self) -> &[u32] {
        match &self.backing {
            #[cfg(unix)]
            U32Backing::Mapped(m) => payload_as::<u32>(m.bytes(), self.len),
            U32Backing::Owned(v) => v,
        }
    }

    /// Streaming checksum verification, mirroring
    /// [`DiskDataset::verify_checksum`].
    pub fn verify_checksum(&self) -> Result<(), DiskDatasetError> {
        let mut hash = Fnv1a::new();
        hash.update(payload_bytes(self.labels()));
        let actual = hash.finish();
        if actual != self.checksum {
            return Err(DiskDatasetError::ChecksumMismatch { expected: self.checksum, actual });
        }
        Ok(())
    }
}

/// The error for the first label outside `[0, num_classes)`, if any.
fn check_labels(labels: &[u32], num_classes: usize) -> Result<(), DiskDatasetError> {
    match labels.iter().position(|&y| y as usize >= num_classes) {
        Some(row) => Err(DiskDatasetError::LabelOutOfRange { row, label: labels[row], num_classes }),
        None => Ok(()),
    }
}

#[cfg(unix)]
fn open_u32_backing(file: &mut File, file_len: usize, _count: usize) -> Result<U32Backing, DiskDatasetError> {
    Ok(U32Backing::Mapped(mapping::Mmap::map(file, file_len)?))
}

#[cfg(not(unix))]
fn open_u32_backing(file: &mut File, _file_len: usize, count: usize) -> Result<U32Backing, DiskDatasetError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut v = Vec::with_capacity(count);
    for chunk in bytes.chunks_exact(size_of::<u32>()) {
        v.push(u32::from_ne_bytes(chunk.try_into().expect("4 bytes")));
    }
    Ok(U32Backing::Owned(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Self-cleaning scratch directory for the format tests.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "snoopy_disk_{tag}_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin() * 3.0)
    }

    #[test]
    fn f32_roundtrip_is_bit_identical_and_aligned() {
        let dir = Scratch::new("roundtrip");
        let m = sample(37, 5);
        let path = dir.file("features.snpy");
        DiskDataset::write(&path, m.view()).expect("write");
        let disk = DiskDataset::open(&path).expect("open");
        assert_eq!(disk.rows(), 37);
        assert_eq!(disk.cols(), 5);
        let v = disk.view();
        assert_eq!(v.data(), m.view().data(), "payload must round-trip bit for bit");
        assert_eq!(v.data().as_ptr() as usize % align_of::<f32>(), 0);
        disk.verify_checksum().expect("checksum");
    }

    #[test]
    fn labels_roundtrip_with_class_count() {
        let dir = Scratch::new("labels");
        let path = dir.file("labels.snpy");
        let y: Vec<u32> = (0..91).map(|i| i % 7).collect();
        DiskLabels::write(&path, &y, 7).expect("write");
        let disk = DiskLabels::open(&path).expect("open");
        assert_eq!(disk.labels(), &y[..]);
        assert_eq!(disk.num_classes(), 7);
        disk.verify_checksum().expect("checksum");
    }

    #[test]
    fn labels_outside_the_class_count_are_refused_on_write_and_open() {
        let dir = Scratch::new("label_range");
        let path = dir.file("labels.snpy");
        let err = DiskLabels::write(&path, &[0, 3, 9, 1], 4).expect_err("label 9 of 4 classes");
        assert!(
            matches!(err, DiskDatasetError::LabelOutOfRange { row: 2, label: 9, num_classes: 4 }),
            "wrong error: {err:?}"
        );
        assert!(err.to_string().contains("label 9 at row 2"), "{err}");
        assert!(!path.exists(), "a refused write creates no file");
        // A valid file whose header class count (the extra field, bytes
        // 44..48) is lowered below a stored label fails at open.
        DiskLabels::write(&path, &[0, 3, 2, 1], 4).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[44..48].copy_from_slice(&3u32.to_ne_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            DiskLabels::open(&path),
            Err(DiskDatasetError::LabelOutOfRange { row: 1, label: 3, num_classes: 3 })
        ));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let dir = Scratch::new("empty");
        let path = dir.file("empty.snpy");
        DiskDataset::write(&path, Matrix::zeros(0, 4).view()).expect("write");
        let disk = DiskDataset::open(&path).expect("open");
        assert_eq!(disk.rows(), 0);
        assert_eq!(disk.cols(), 4);
        assert!(disk.view().is_empty());
        disk.verify_checksum().expect("checksum of nothing");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = Scratch::new("magic");
        let path = dir.file("bad.snpy");
        DiskDataset::write(&path, sample(4, 3).view()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[0] = b'X';
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::BadMagic(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let dir = Scratch::new("version");
        let path = dir.file("v9.snpy");
        DiskDataset::write(&path, sample(4, 3).view()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[8..12].copy_from_slice(&9u32.to_ne_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::UnsupportedVersion(9))));
    }

    #[test]
    fn foreign_endianness_is_rejected() {
        let dir = Scratch::new("endian");
        let path = dir.file("be.snpy");
        DiskDataset::write(&path, sample(4, 3).view()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        let tag: [u8; 4] = bytes[12..16].try_into().expect("4 bytes");
        bytes[12..16].copy_from_slice(&[tag[3], tag[2], tag[1], tag[0]]);
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::ForeignEndianness(_))));
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let dir = Scratch::new("truncated");
        let path = dir.file("cut.snpy");
        DiskDataset::write(&path, sample(8, 4).view()).expect("write");
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::Truncated { .. })));
        let mut grown = bytes.clone();
        grown.extend_from_slice(&[0u8; 12]);
        fs::write(&path, &grown).expect("grow");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::Truncated { .. })));
        fs::write(&path, &bytes[..HEADER_LEN - 10]).expect("cut header");
        assert!(matches!(DiskDataset::open(&path), Err(DiskDatasetError::Truncated { .. })));
    }

    #[test]
    fn wrong_kind_is_rejected_both_ways() {
        let dir = Scratch::new("kind");
        let feat = dir.file("features.snpy");
        let lab = dir.file("labels.snpy");
        DiskDataset::write(&feat, sample(6, 1).view()).expect("write features");
        DiskLabels::write(&lab, &[0, 1, 2], 3).expect("write labels");
        assert!(matches!(DiskDataset::open(&lab), Err(DiskDatasetError::WrongKind { .. })));
        assert!(matches!(DiskLabels::open(&feat), Err(DiskDatasetError::WrongKind { .. })));
    }

    #[test]
    fn corrupted_payload_fails_checksum_but_still_opens() {
        let dir = Scratch::new("checksum");
        let path = dir.file("flip.snpy");
        DiskDataset::write(&path, sample(16, 4).view()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        let mid = HEADER_LEN + bytes[HEADER_LEN..].len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        // Open is lazy by contract: the flipped byte is only caught by the
        // explicit streaming verification pass.
        let disk = DiskDataset::open(&path).expect("open stays lazy");
        assert!(matches!(disk.verify_checksum(), Err(DiskDatasetError::ChecksumMismatch { .. })));
    }
}
