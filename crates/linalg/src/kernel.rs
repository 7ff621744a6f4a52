//! The register-blocked microkernels: the dot product behind every distance
//! evaluation in the workspace, and the matrix product behind every linear
//! map of the transformation zoo.
//!
//! Pairwise distances used to be computed one `(query, row)` pair at a time
//! with a scalar accumulation (`acc += d * d`). That loop carries a serial
//! dependency through `acc`, so the compiler cannot vectorise it without
//! reassociating floating-point additions — which it (correctly) refuses to
//! do. This module fixes the accumulation order *by definition*:
//!
//! * [`dot`] accumulates into [`LANES`] independent lanes — element `i` goes
//!   to lane `i % LANES` (a trailing partial chunk fills lanes `0..rem`) —
//!   and the lanes are combined by a fixed pairwise tree. With the
//!   dependency chain split eight ways the loop auto-vectorises cleanly.
//! * [`dot_row_tile`] computes one query against a *tile* of consecutive
//!   rows, [`ROW_BLOCK`] rows at a time, so each loaded query chunk is
//!   reused across the register block instead of being re-streamed per row.
//! * [`dot_row_tile2`] computes **two** queries against the same row tile —
//!   the engine's hot configuration. The 2 × 4 register block reuses every
//!   loaded row chunk across both queries and every query chunk across four
//!   rows, cutting load traffic per accumulated element roughly in half
//!   again (measured ~2.4× over the 1 × 4 block at d = 64 on this
//!   workload's shapes).
//!
//! Crucially, every pair inside any block keeps its own lane accumulators
//! walking the dimensions in exactly the order of [`dot`], so the tiled
//! results are **bit-identical** to the scalar call on the same pair —
//! results cannot depend on tile shape, on pairing, or on which code path
//! computed them.
//!
//! Distance *expressions* (the norm-trick squared Euclidean, cosine
//! dissimilarity) live one layer up, in `snoopy_knn::kernel`; this module
//! only knows about dot products and squared norms. `f32` multiplies and
//! adds are exactly rounded IEEE operations, so the fixed order makes
//! results portable across machines as well as across shapes.
//!
//! # The matrix product
//!
//! [`matmul_tile`] multiplies a tile of rows by a row-major matrix through a
//! [`ROW_BLOCK`] × [`COL_BLOCK`] register block: 32 accumulators, each
//! loaded entry of the right factor reused across four rows and each row
//! entry across eight columns. It runs the simulated encoders' `x·L`,
//! `(x·L)·Q` and `x·B`, the PCA, NCA and random projections, and the data
//! generators' mixing.
//!
//! Its order contract is the textbook `ikj` loop's: output `(i, j)` starts
//! from `+0.0` and adds `a_ik · b_kj` one product at a time for `k`
//! ascending. The block changes which outputs advance together, never the
//! order within one, so every embedding is bit-identical to that loop's.
//!
//! The `ikj` loop also skips zero entries of the left factor, which keeps
//! term-frequency rows (mostly zeros) cheap. A skipped product differs from
//! an added one only when the right factor holds ±∞ or NaN (`0 · ∞` is NaN),
//! so `DatasetView::matmul` keeps the skip by rule rather than by data: a
//! block of [`ROW_BLOCK`] rows takes the register block only if none of its
//! entries is zero (`-0.0` counts), and every row of any other block keeps
//! the zero-skipping loop. Both paths add the same products in the same
//! order for any input. On the Table I replicas the rule splits the raw
//! features by modality at every scale: mnist, cifar10 and cifar100 have no
//! zero entry, and every sst2, imdb and yelp row has zeros (95 % of sst2
//! Small's entries), so their `x·L` and `x·B` keep the skipping loop while
//! the dense `(x·L)·Q` takes the block. `Pca::transform`, whose centred rows
//! sum every term, calls the register block on every block.
//!
//! # Runtime dispatch
//!
//! The default `x86-64` target compiles for SSE2 only, so each of the three
//! public kernels ([`dot_row_tile`], [`dot_row_tile2`], [`matmul_tile`])
//! checks its arguments once and then picks one of two compilations of the
//! same private `#[inline(always)]` body: a
//! `#[target_feature(enable = "avx2")]` twin when the CPU has AVX2 (one
//! cached `is_x86_feature_detected!` probe), else the body as the build
//! target compiles it. [`path`] names the one taken; no setting changes it,
//! and on other architectures only the body compiles. The three twin calls
//! are the only `unsafe` in the kernels, each justified by the probe just
//! before it.
//!
//! The two paths give the same bits. The twin runs the same source in the
//! same per-lane order, only on wider registers: AVX2 enables no FMA, Rust
//! never contracts `a * b + c` into one, and nothing here calls `mul_add`.
//! `tests::avx2_twins_match_the_baseline_bodies_bit_for_bit` checks every
//! output of both on ragged shapes and on ±∞, NaN and `-0.0` entries.
//!
//! Every helper a body reaches ([`dot`], `sum_lanes`, `dot_block4`,
//! `dot_block2x4`, `matmul_block`, `matmul_panel`) must stay
//! `#[inline(always)]`. With plain `#[inline]`, LLVM compiled `dot`'s lane
//! loop, `dot_block4` and `dot_block2x4` as out-of-line SSE2 functions that
//! the twins call once per four-row block, and the twins ran slower than
//! the baseline: in perfbench's traced `oocore` workload (seed 1, 2-core
//! Xeon) the resident table took 0.197 s, against 0.104 s on the baseline
//! and 0.081 s with the helpers inlined.

/// Independent accumulator lanes per dot product. Eight `f32` lanes fill one
/// 256-bit vector register on the AVX2 path (two 128-bit ones on the SSE2
/// baseline).
pub const LANES: usize = 8;

/// Rows evaluated per register block in the tile drivers.
pub const ROW_BLOCK: usize = 4;

/// Output columns per row in the register block of [`matmul_tile`]: one
/// accumulator per column, eight `f32` lanes like [`LANES`].
pub const COL_BLOCK: usize = 8;

/// Fixed pairwise reduction tree over the lane accumulators — part of the
/// kernel's bit-exactness contract (a linear re-sum would round differently).
#[inline(always)] // every helper a kernel body reaches: see "Runtime dispatch"
fn sum_lanes(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product `⟨a, b⟩` in the kernel's fixed lane order.
///
/// This is *the* reference accumulation: every tiled path in the workspace
/// produces bit-identical values to this function on the same pair.
///
/// Always inlined, so a dispatched kernel body computes its tail rows with
/// its own instruction set (module docs, "Runtime dispatch").
///
/// # Panics
/// Debug-asserts equal lengths (callers pass rows of dimension-checked
/// views).
#[inline(always)]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let (ca, ta) = a.as_chunks::<LANES>();
    let (cb, tb) = b.as_chunks::<LANES>();
    for (xa, xb) in ca.iter().zip(cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    for (l, (&x, &y)) in ta.iter().zip(tb).enumerate() {
        acc[l] += x * y;
    }
    sum_lanes(acc)
}

/// Squared Euclidean norm `‖a‖²` in the kernel's fixed lane order
/// (= [`dot`]`(a, a)`).
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// One register block: `q` against four rows, all four pairs sharing each
/// loaded query chunk. Per-pair accumulation order is identical to [`dot`].
#[inline(always)]
fn dot_block4(q: &[f32], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32]) -> [f32; 4] {
    let mut acc = [[0.0f32; LANES]; ROW_BLOCK];
    let (cq, tq) = q.as_chunks::<LANES>();
    let (c0, t0) = r0.as_chunks::<LANES>();
    let (c1, t1) = r1.as_chunks::<LANES>();
    let (c2, t2) = r2.as_chunks::<LANES>();
    let (c3, t3) = r3.as_chunks::<LANES>();
    for ((xq, x0), ((x1, x2), x3)) in cq.iter().zip(c0).zip(c1.iter().zip(c2).zip(c3)) {
        for l in 0..LANES {
            acc[0][l] += xq[l] * x0[l];
            acc[1][l] += xq[l] * x1[l];
            acc[2][l] += xq[l] * x2[l];
            acc[3][l] += xq[l] * x3[l];
        }
    }
    for (r, t) in [t0, t1, t2, t3].iter().enumerate() {
        for (l, (&x, &y)) in tq.iter().zip(t.iter()).enumerate() {
            acc[r][l] += x * y;
        }
    }
    [sum_lanes(acc[0]), sum_lanes(acc[1]), sum_lanes(acc[2]), sum_lanes(acc[3])]
}

/// The 2 × 4 register block: two queries against four rows, eight pairs
/// sharing every loaded chunk. Per-pair accumulation order is identical to
/// [`dot`].
#[inline(always)]
fn dot_block2x4(qa: &[f32], qb: &[f32], rows: [&[f32]; ROW_BLOCK]) -> [[f32; ROW_BLOCK]; 2] {
    let mut acc = [[0.0f32; LANES]; 2 * ROW_BLOCK];
    let (ca, ta) = qa.as_chunks::<LANES>();
    let (cb, tb) = qb.as_chunks::<LANES>();
    let (c0, t0) = rows[0].as_chunks::<LANES>();
    let (c1, t1) = rows[1].as_chunks::<LANES>();
    let (c2, t2) = rows[2].as_chunks::<LANES>();
    let (c3, t3) = rows[3].as_chunks::<LANES>();
    for ((xa, xb), (((x0, x1), x2), x3)) in ca.iter().zip(cb).zip(c0.iter().zip(c1).zip(c2).zip(c3)) {
        for l in 0..LANES {
            acc[0][l] += xa[l] * x0[l];
            acc[1][l] += xa[l] * x1[l];
            acc[2][l] += xa[l] * x2[l];
            acc[3][l] += xa[l] * x3[l];
            acc[4][l] += xb[l] * x0[l];
            acc[5][l] += xb[l] * x1[l];
            acc[6][l] += xb[l] * x2[l];
            acc[7][l] += xb[l] * x3[l];
        }
    }
    for (r, t) in [t0, t1, t2, t3].iter().enumerate() {
        for (l, (&y, (&xa, &xb))) in t.iter().zip(ta.iter().zip(tb)).enumerate() {
            acc[r][l] += xa * y;
            acc[ROW_BLOCK + r][l] += xb * y;
        }
    }
    [
        [sum_lanes(acc[0]), sum_lanes(acc[1]), sum_lanes(acc[2]), sum_lanes(acc[3])],
        [sum_lanes(acc[4]), sum_lanes(acc[5]), sum_lanes(acc[6]), sum_lanes(acc[7])],
    ]
}

/// Fills `out[j] = ⟨q, row t0 + j of the row-major buffer `rows`⟩` for
/// `j in 0..out.len()`, walking the rows in register blocks of
/// [`ROW_BLOCK`] with a scalar tail. Every entry is bit-identical to
/// [`dot`] on the same pair — ragged tile edges (row counts not a multiple
/// of the block, dimensions not a multiple of [`LANES`]) only change
/// *which* loop computes a pair, never its value.
///
/// The row side is a raw `(buffer, cols)` pair rather than a
/// [`DatasetView`](crate::view::DatasetView) on purpose: the plain-slice
/// parameters are what lets LLVM keep the register block in registers
/// (callers destructure a view with `view.data()` / `view.cols()`). The
/// function is also deliberately *not* inlinable — the call boundary
/// carries the `noalias` guarantee on `out`; inlined into a consumer loop,
/// the tile stores could alias the row data and every chunk would be
/// reloaded, undoing the register blocking. It runs on the host's
/// [`path`] (module docs, "Runtime dispatch").
///
/// # Panics
/// Panics if `q.len()` differs from `cols` or (via slice indexing) if
/// `(t0 + out.len()) * cols` exceeds the buffer.
#[inline(never)]
pub fn dot_row_tile(q: &[f32], rows: &[f32], cols: usize, t0: usize, out: &mut [f32]) {
    assert_eq!(q.len(), cols, "query length must equal the row width");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` has just confirmed that this CPU supports AVX2,
        // the only feature the twin enables.
        return unsafe { dot_row_tile_avx2(q, rows, cols, t0, out) };
    }
    dot_row_tile_body(q, rows, cols, t0, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_row_tile_avx2(q: &[f32], rows: &[f32], cols: usize, t0: usize, out: &mut [f32]) {
    dot_row_tile_body(q, rows, cols, t0, out);
}

#[inline(always)]
fn dot_row_tile_body(q: &[f32], rows: &[f32], cols: usize, t0: usize, out: &mut [f32]) {
    let n = out.len();
    let row = |r: usize| &rows[r * cols..(r + 1) * cols];
    let mut j = 0;
    while j + ROW_BLOCK <= n {
        let d = dot_block4(q, row(t0 + j), row(t0 + j + 1), row(t0 + j + 2), row(t0 + j + 3));
        out[j..j + ROW_BLOCK].copy_from_slice(&d);
        j += ROW_BLOCK;
    }
    while j < n {
        out[j] = dot(q, row(t0 + j));
        j += 1;
    }
}

/// Two-query variant of [`dot_row_tile`]: fills
/// `out_a[j] = ⟨qa, rows.row(t0 + j)⟩` and
/// `out_b[j] = ⟨qb, rows.row(t0 + j)⟩` through the 2 × 4 register block.
/// Bit-identical to two [`dot_row_tile`] calls (hence to [`dot`]) on the
/// same pairs, and dispatched the same way.
///
/// # Panics
/// Panics if `qa.len()` or `qb.len()` differs from `cols`,
/// `out_a.len() != out_b.len()`, or the tile range exceeds the buffer.
#[inline(never)] // see `dot_row_tile` — same parameter-shape and `noalias` boundary argument
pub fn dot_row_tile2(
    qa: &[f32],
    qb: &[f32],
    rows: &[f32],
    cols: usize,
    t0: usize,
    out_a: &mut [f32],
    out_b: &mut [f32],
) {
    assert_eq!(qa.len(), cols, "first query length must equal the row width");
    assert_eq!(qb.len(), cols, "second query length must equal the row width");
    assert_eq!(out_a.len(), out_b.len(), "paired tile buffers must have equal lengths");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` has just confirmed that this CPU supports AVX2,
        // the only feature the twin enables.
        return unsafe { dot_row_tile2_avx2(qa, qb, rows, cols, t0, out_a, out_b) };
    }
    dot_row_tile2_body(qa, qb, rows, cols, t0, out_a, out_b);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_row_tile2_avx2(
    qa: &[f32],
    qb: &[f32],
    rows: &[f32],
    cols: usize,
    t0: usize,
    out_a: &mut [f32],
    out_b: &mut [f32],
) {
    dot_row_tile2_body(qa, qb, rows, cols, t0, out_a, out_b);
}

#[inline(always)]
fn dot_row_tile2_body(
    qa: &[f32],
    qb: &[f32],
    rows: &[f32],
    cols: usize,
    t0: usize,
    out_a: &mut [f32],
    out_b: &mut [f32],
) {
    let n = out_a.len();
    let row = |r: usize| &rows[r * cols..(r + 1) * cols];
    let mut j = 0;
    while j + ROW_BLOCK <= n {
        let block = [row(t0 + j), row(t0 + j + 1), row(t0 + j + 2), row(t0 + j + 3)];
        let [da, db] = dot_block2x4(qa, qb, block);
        out_a[j..j + ROW_BLOCK].copy_from_slice(&da);
        out_b[j..j + ROW_BLOCK].copy_from_slice(&db);
        j += ROW_BLOCK;
    }
    while j < n {
        out_a[j] = dot(qa, row(t0 + j));
        out_b[j] = dot(qb, row(t0 + j));
        j += 1;
    }
}

/// Columns `j0..j0 + W` of `R` rows of `a` times `b` (row-major, `cols`
/// wide): `W` accumulators per row, each summed from `+0.0` with `k`
/// ascending, stored into the same columns of the `R` output rows.
#[inline(always)]
fn matmul_panel<const R: usize, const W: usize>(
    a: [&[f32]; R],
    b: &[f32],
    cols: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; W]; R];
    for (k, b_row) in b.chunks_exact(cols).enumerate() {
        let bk: &[f32; W] = b_row[j0..j0 + W].try_into().expect("a panel slice is W wide");
        for r in 0..R {
            let x = a[r][k];
            for l in 0..W {
                acc[r][l] += x * bk[l];
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * cols + j0..r * cols + j0 + W].copy_from_slice(acc);
    }
}

/// All columns of `R` rows: panels of [`COL_BLOCK`] columns, then one of
/// half that width and single columns for the rest. The widths are
/// constants so each panel's accumulators stay in registers.
#[inline(always)]
fn matmul_block<const R: usize>(a: [&[f32]; R], b: &[f32], cols: usize, out: &mut [f32]) {
    let mut j0 = 0;
    while j0 + COL_BLOCK <= cols {
        matmul_panel::<R, COL_BLOCK>(a, b, cols, j0, out);
        j0 += COL_BLOCK;
    }
    if j0 + COL_BLOCK / 2 <= cols {
        matmul_panel::<R, { COL_BLOCK / 2 }>(a, b, cols, j0, out);
        j0 += COL_BLOCK / 2;
    }
    while j0 < cols {
        matmul_panel::<R, 1>(a, b, cols, j0, out);
        j0 += 1;
    }
}

/// Matrix product of a row tile: `out[i·cols + j] = Σ_k a[i·inner + k] ·
/// b[k·cols + j]` for the `out.len() / cols` rows of the row-major tile `a`
/// against the row-major `inner × cols` matrix `b`, through the
/// [`ROW_BLOCK`] × [`COL_BLOCK`] register block (rows past the last whole
/// block run one at a time).
///
/// Every product is summed: each output starts from `+0.0` and adds
/// `a[i][k] · b[k][j]` for `k` ascending, one product at a time, whatever
/// the block a row or column falls in. That is the order of the textbook
/// `ikj` loop without its zero skip, so the two agree bit for bit on any
/// input, NaN and ±∞ included. The module docs give the zero-free block
/// rule under which `DatasetView::matmul` also matches the skipping loop.
///
/// Same parameter-shape, `#[inline(never)]` and dispatch rationale as
/// [`dot_row_tile`]: raw slices and the call boundary give LLVM a `noalias`
/// view of `out`, so the accumulators stay in registers.
///
/// # Panics
/// Panics if `a.len()` is not `rows · inner` or `b.len()` is not
/// `inner · cols`.
#[inline(never)]
pub fn matmul_tile(a: &[f32], b: &[f32], inner: usize, cols: usize, out: &mut [f32]) {
    if cols == 0 {
        return;
    }
    assert_eq!(a.len(), out.len() / cols * inner, "row tile is not rows × inner");
    assert_eq!(b.len(), inner * cols, "right factor is not inner × cols");
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` has just confirmed that this CPU supports AVX2,
        // the only feature the twin enables.
        return unsafe { matmul_tile_avx2(a, b, inner, cols, out) };
    }
    matmul_tile_body(a, b, inner, cols, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_tile_avx2(a: &[f32], b: &[f32], inner: usize, cols: usize, out: &mut [f32]) {
    matmul_tile_body(a, b, inner, cols, out);
}

/// [`matmul_tile`] for `cols > 0` and a checked `a` and `b`.
#[inline(always)]
fn matmul_tile_body(a: &[f32], b: &[f32], inner: usize, cols: usize, out: &mut [f32]) {
    let rows = out.len() / cols;
    let row = |r: usize| &a[r * inner..(r + 1) * inner];
    let mut r = 0;
    while r + ROW_BLOCK <= rows {
        let block = [row(r), row(r + 1), row(r + 2), row(r + 3)];
        matmul_block(block, b, cols, &mut out[r * cols..(r + ROW_BLOCK) * cols]);
        r += ROW_BLOCK;
    }
    while r < rows {
        matmul_block([row(r)], b, cols, &mut out[r * cols..(r + 1) * cols]);
        r += 1;
    }
}

/// The instruction set the three tile kernels run on in this process:
/// `"avx2"` on an x86_64 CPU with AVX2, else `"baseline"` (the build
/// target's own, SSE2 for the default `x86-64` target). Both give the same
/// bits; `bench_knn_json` records it next to its timings.
pub fn path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        return "avx2";
    }
    "baseline"
}

/// Whether this CPU has AVX2 — the one dispatch decision of the module.
/// std probes CPUID once per process and caches the answer, so each call is
/// a load and a bit test.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn wavy(n: usize, d: usize, phase: f32) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * d + c) as f32 * 0.61 + phase).sin() * 2.0)
    }

    /// Naive f64 dot for tolerance checks (the lane order is *not* expected
    /// to match this bit for bit, only to be close).
    fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    #[test]
    fn lane_dot_is_close_to_f64_for_every_ragged_dimension() {
        for d in [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let m = wavy(2, d, 0.3);
            let got = dot(m.row(0), m.row(1)) as f64;
            let want = dot_f64(m.row(0), m.row(1));
            let tol = 1e-5 * (1.0 + want.abs());
            assert!((got - want).abs() < tol, "d {d}: {got} vs {want}");
        }
    }

    #[test]
    fn tile_is_bit_identical_to_scalar_dot_for_ragged_shapes() {
        for d in [1usize, 3, 8, 11, 16, 29] {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 13] {
                let rows = wavy(n, d, 0.0);
                let q = wavy(1, d, 1.1);
                for t0 in 0..n {
                    for len in 0..=(n - t0) {
                        let mut out = vec![0.0f32; len];
                        dot_row_tile(q.row(0), rows.data(), d, t0, &mut out);
                        for (j, &v) in out.iter().enumerate() {
                            let scalar = dot(q.row(0), rows.row(t0 + j));
                            assert_eq!(v.to_bits(), scalar.to_bits(), "d {d} n {n} t0 {t0} len {len} j {j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn paired_tile_is_bit_identical_to_scalar_dot_for_ragged_shapes() {
        for d in [1usize, 3, 7, 8, 9, 16, 29] {
            for n in [1usize, 3, 4, 5, 8, 11] {
                let rows = wavy(n, d, 0.0);
                let queries = wavy(2, d, 1.7);
                for t0 in 0..n {
                    let len = n - t0;
                    let mut out_a = vec![0.0f32; len];
                    let mut out_b = vec![0.0f32; len];
                    dot_row_tile2(queries.row(0), queries.row(1), rows.data(), d, t0, &mut out_a, &mut out_b);
                    for j in 0..len {
                        let sa = dot(queries.row(0), rows.row(t0 + j));
                        let sb = dot(queries.row(1), rows.row(t0 + j));
                        assert_eq!(out_a[j].to_bits(), sa.to_bits(), "a: d {d} n {n} t0 {t0} j {j}");
                        assert_eq!(out_b[j].to_bits(), sb.to_bits(), "b: d {d} n {n} t0 {t0} j {j}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "query length must equal the row width")]
    fn tile_rejects_a_query_of_the_wrong_length() {
        let rows = wavy(4, 16, 0.0);
        let q = wavy(1, 8, 1.1);
        let mut out = [0.0f32; 4];
        dot_row_tile(q.row(0), rows.data(), 16, 0, &mut out);
    }

    #[test]
    #[should_panic(expected = "second query length must equal the row width")]
    fn paired_tile_rejects_a_query_of_the_wrong_length() {
        let rows = wavy(4, 16, 0.0);
        let (qa, qb) = (wavy(1, 16, 1.1), wavy(1, 24, 1.7));
        let (mut out_a, mut out_b) = ([0.0f32; 4], [0.0f32; 4]);
        dot_row_tile2(qa.row(0), qb.row(0), rows.data(), 16, 0, &mut out_a, &mut out_b);
    }

    /// `len` entries of a product factor: a finite wave with a `-0.0` every
    /// fifth entry and, when `special`, +∞, -∞ and NaN in turn every
    /// seventh.
    fn factor(len: usize, phase: f32, special: bool) -> Vec<f32> {
        const SPECIAL: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let entry = |i: usize| match (i % 5, i % 7) {
            (_, 3) if special => SPECIAL[i / 7 % 3],
            (2, _) => -0.0,
            _ => (i as f32 * 0.61 + phase).sin() * 2.0,
        };
        (0..len).map(entry).collect()
    }

    /// Equal bits, or NaN on both sides: a NaN's payload depends on which
    /// operand the compiled `+` put first, and the dev profile's twin and
    /// body order some NaN sums differently.
    fn same_bits(twin: &[f32], body: &[f32]) -> bool {
        twin.len() == body.len()
            && twin.iter().zip(body).all(|(t, b)| t.to_bits() == b.to_bits() || (t.is_nan() && b.is_nan()))
    }

    /// Every output of each AVX2 twin equals its baseline body's, over the
    /// shapes of the two tile tests above and the product's rows 0..=13,
    /// inner 0..=20 and columns 1..=27 (a zero-width product returns before
    /// dispatch) with ±∞ and NaN in either factor.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_twins_match_the_baseline_bodies_bit_for_bit() {
        let twins = avx2();
        if !twins {
            println!("note: this CPU has no AVX2, so only the baseline bodies ran");
        }
        for d in [1usize, 3, 7, 8, 9, 11, 16, 29] {
            for n in [1usize, 2, 3, 4, 5, 7, 8, 11, 13] {
                let (rows, queries) = (wavy(n, d, 0.0), wavy(2, d, 1.7));
                let (qa, qb, rows) = (queries.row(0), queries.row(1), rows.data());
                for t0 in 0..n {
                    for len in 0..=(n - t0) {
                        let [mut one, mut pa, mut pb] = [(); 3].map(|_| vec![0.0f32; len]);
                        dot_row_tile_body(qa, rows, d, t0, &mut one);
                        dot_row_tile2_body(qa, qb, rows, d, t0, &mut pa, &mut pb);
                        if !twins {
                            continue;
                        }
                        let [mut twin_one, mut twin_pa, mut twin_pb] = [(); 3].map(|_| vec![0.0f32; len]);
                        // SAFETY: `avx2()` confirmed that this CPU supports AVX2.
                        unsafe {
                            dot_row_tile_avx2(qa, rows, d, t0, &mut twin_one);
                            dot_row_tile2_avx2(qa, qb, rows, d, t0, &mut twin_pa, &mut twin_pb);
                        }
                        assert!(same_bits(&twin_one, &one), "tile: d {d} n {n} t0 {t0} len {len}");
                        assert!(same_bits(&twin_pa, &pa), "paired a: d {d} n {n} t0 {t0} len {len}");
                        assert!(same_bits(&twin_pb, &pb), "paired b: d {d} n {n} t0 {t0} len {len}");
                    }
                }
            }
        }
        for (special_a, special_b) in [(false, false), (true, false), (false, true)] {
            for rows in 0..=13usize {
                for inner in 0..=20usize {
                    for cols in 1..=27usize {
                        let a = factor(rows * inner, 0.3, special_a);
                        let b = factor(inner * cols, 1.9, special_b);
                        let mut body = vec![0.0f32; rows * cols];
                        matmul_tile_body(&a, &b, inner, cols, &mut body);
                        if !twins {
                            continue;
                        }
                        let mut twin = vec![0.0f32; rows * cols];
                        // SAFETY: `avx2()` confirmed that this CPU supports AVX2.
                        unsafe { matmul_tile_avx2(&a, &b, inner, cols, &mut twin) };
                        let at = (rows, inner, cols, special_a, special_b);
                        assert!(same_bits(&twin, &body), "product rows, inner, cols, specials: {at:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn norm_sq_matches_dot_with_self_and_simple_values() {
        let a = [3.0f32, 4.0];
        assert_eq!(norm_sq(&a), 25.0);
        let m = wavy(1, 23, 0.7);
        assert_eq!(norm_sq(m.row(0)).to_bits(), dot(m.row(0), m.row(0)).to_bits());
    }

    #[test]
    fn dot_is_exactly_symmetric() {
        let m = wavy(2, 37, 0.0);
        assert_eq!(dot(m.row(0), m.row(1)).to_bits(), dot(m.row(1), m.row(0)).to_bits());
    }

    #[test]
    fn empty_and_zero_inputs() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(norm_sq(&[]), 0.0);
        let z = vec![0.0f32; 13];
        assert_eq!(norm_sq(&z), 0.0);
        let mut out: Vec<f32> = vec![];
        dot_row_tile(&z, Matrix::zeros(4, 13).data(), 13, 2, &mut out);
        let mut out_b: Vec<f32> = vec![];
        dot_row_tile2(&z, &z, Matrix::zeros(4, 13).data(), 13, 2, &mut out, &mut out_b);
    }
}
