//! Per-dimension affine int8 quantization: the shadow copy behind the
//! clustered index's two-phase (approximate-then-exact) scan.
//!
//! A [`QuantizedShadow`] stores every indexed row `x` as int8 codes `X`
//! under a per-dimension affine map `x ≈ s ∘ X + o` (scale `s_j ≥ 0`,
//! offset `o_j`, codes in `[−127, 127]`). Phase 1 of a scan evaluates an
//! *approximate* squared Euclidean distance from one byte per dimension;
//! phase 2 re-ranks the rows that survive a provably-safe widened prune
//! bound through the exact f32 kernel. The derivation of that bound — why
//! the approximation plus a per-row reconstruction radius can never prune a
//! true neighbour — lives in the [`crate::clustered`] module docs; this
//! module owns the encoding, the per-row error book-keeping, and the
//! overflow guards that keep the error model sound on extreme inputs.
//!
//! ## Encoding
//!
//! [`AffineQuantizer::fit`] picks, per dimension, the range midpoint as the
//! offset and `(max − min) / 254` as the scale, so the observed range maps
//! onto the symmetric code interval `[−127, 127]`. Constant columns get
//! scale `0` and code `0` — the offset carries the column exactly, so such
//! a dimension contributes *zero* reconstruction error. Codes are computed
//! in f64 (`round((x − o) / s)`, clamped), so encoding is deterministic and
//! a row outside the fitted range still encodes (with a larger
//! reconstruction radius).
//!
//! ## The integer inner loop
//!
//! The query is *not* stored quantized, but its scaled residual
//! `w = fl32((q − o) ∘ s)` is re-quantized per query onto a **single**
//! query-level scale `g`: `v_j = round(w_j / g)` with `|v_j| ≤ 8191`
//! (`g = max_j |w_j| / 8191`). Phase 1 then evaluates the exact integer dot
//! `Σ v_j · X_j` (`i16 × i8 → i32`, [`snoopy_linalg::kernel::dot_q8`]) —
//! integer arithmetic is associative, so the reduction autovectorizes to
//! widening multiply-adds on baseline targets while staying bit-exact by
//! construction — and the approximate squared distance is finished in f64
//! from exact inputs: `â_i = (nu + ‖y_i‖²) − 2g · Σ v_j X_{ij}`.
//!
//! The query-quantization step is *not* folded into the floating-point
//! margin; it gets its own exact per-row term. With
//! `|w_j − g·v_j| ≤ 0.51·g` (half a step plus division rounding, with the
//! clamp at ±8191 absorbed by the same slack) the dot-term error obeys
//! `|2 Σ (w_j − g v_j) X_{ij}| ≤ 1.02·g · Σ_j |X_{ij}|`, so the shadow
//! stores `code_abs[i] = Σ_j |X_{ij}|` (an exact small integer in f32) and
//! the scan widens each row's bound by `qslack · code_abs[i]`,
//! `qslack = 1.02·g`.
//!
//! ## What makes the bound checkable
//!
//! The scan-side reconstruction point of row `i` is *defined* as
//! `x̂_j = fl32(s_j · X_j) + o_j`. Per row the shadow stores:
//!
//! * `code_norms[i] = ‖y_i‖²` in the kernel's fixed lane order, where
//!   `y_j = fl32(s_j · X_j)` — the norm-trick term of the approximate
//!   distance,
//! * `code_abs[i] = Σ_j |X_{ij}|` — the query-quantization error weight
//!   above,
//! * `recon_err[i] ≥ ‖x_i − x̂_i‖`, computed exactly in f64 at encode time
//!   and inflated by one part in 10⁶ before the f32 store so the stored
//!   value never rounds below the true radius (clamped rows far outside
//!   the fitted range simply get a large radius — wide bounds, never wrong
//!   ones),
//! * `max_code_norm = max_i ‖y_i‖` in f64 — the `‖x‖` stand-in of the
//!   kernel-error margin.
//!
//! The floating-point margin `2(d + 32)·ε_f32·(‖u‖ + M)²` then only has to
//! cover the f32 roundings of `u = fl(q − o)`, `w = fl(u ∘ s)`, and the two
//! fixed-order norm accumulations (`nu`, `‖y‖²`) — each an `O(d·ε)`
//! absolute term bounded by the span — plus the handful of f64 finishing
//! operations (negligible at `ε_f64`). The integer dot itself contributes
//! zero.
//!
//! ## Overflow guards
//!
//! The margin is *absolute*, which silently requires that no f32
//! intermediate overflows. Every float intermediate is bounded by
//! `2(‖u‖ + M)²` (partial norm sums via Cauchy–Schwarz, per-element
//! products because some row attains each dimension's extreme code), so
//! capping both norms at [`MAX_SAFE_NORM`] `= 10¹⁸` keeps everything below
//! `~10³⁷`, comfortably inside f32 range. The integer accumulator has its
//! own budget: `|v| ≤ 8191`, `|X| ≤ 127` keep the i32 sum exact up to 2064
//! dimensions, enforced as [`MAX_QUANTIZED_DIMS`] `= 2000` at build time.
//! [`QuantizedShadow::build`] returns `None` when the data side violates
//! either cap (the index then scans exactly, as if unquantized) and
//! [`QuantizedShadow::prepare_query`] returns `None` when the query side
//! does (that one query scans exactly). Exactness never depends on the
//! shadow — it only skips work.

use snoopy_linalg::kernel as simd;
use snoopy_linalg::DatasetView;

/// Largest Euclidean norm (query side `‖u‖` or data side `max ‖y‖`) the
/// quantized bound accepts: beyond it the approximate-distance intermediates
/// could overflow f32 and the absolute error model would break, so the scan
/// falls back to the exact path. See the [module docs](self).
pub const MAX_SAFE_NORM: f64 = 1e18;

/// Largest dimensionality the shadow quantizes: `8191 · 127 · 2064 < 2³¹`
/// keeps the phase-1 integer dot exact in i32, with 2000 as the enforced
/// (round) cap. Wider data simply stays on the exact scan.
pub const MAX_QUANTIZED_DIMS: usize = 2000;

/// Largest magnitude of a quantized query code `v_j` (13 bits + sign).
const QCODE_MAX: f64 = 8191.0;

/// Rounds a non-negative f64 radius **up** into f32: the `1e-6` relative
/// inflation dominates both the f64 accumulation error and the f64→f32
/// rounding (each below `10⁻⁷` relative), so the stored radius is always
/// `≥` the true one. Overflow to `+∞` is safe — an infinite radius never
/// prunes.
fn inflate_radius(r: f64) -> f32 {
    (r * (1.0 + 1e-6)) as f32
}

/// The per-dimension affine map `x ≈ scales ∘ codes + offsets` shared by
/// every row of one quantized shadow. Fit once per index; the shard-paged
/// index encodes every shard against the one quantizer fitted over its
/// whole source.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineQuantizer {
    /// Per-dimension scale `s_j = (max_j − min_j) / 254` (`0` for constant
    /// or never-observed columns).
    scales: Vec<f32>,
    /// Per-dimension offset `o_j`: the midpoint of the observed range.
    offsets: Vec<f32>,
}

impl AffineQuantizer {
    /// Fits the per-dimension range map over `rows`. Min/max run in f64 so
    /// midpoints and ranges of extreme f32 values cannot overflow; NaN
    /// entries are ignored (and encode to code `0`).
    pub fn fit(rows: DatasetView<'_>) -> Self {
        let d = rows.cols();
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for row in rows.rows_iter() {
            for (j, &x) in row.iter().enumerate() {
                let x = x as f64;
                if x < lo[j] {
                    lo[j] = x;
                }
                if x > hi[j] {
                    hi[j] = x;
                }
            }
        }
        let mut scales = Vec::with_capacity(d);
        let mut offsets = Vec::with_capacity(d);
        for j in 0..d {
            if hi[j] >= lo[j] {
                offsets.push(((lo[j] + hi[j]) * 0.5) as f32);
                scales.push(((hi[j] - lo[j]) / 254.0) as f32);
            } else {
                offsets.push(0.0);
                scales.push(0.0);
            }
        }
        Self { scales, offsets }
    }

    /// Dimensionality the quantizer was fitted for.
    pub fn cols(&self) -> usize {
        self.scales.len()
    }

    /// Heap bytes held by the affine parameters.
    pub fn param_bytes(&self) -> usize {
        (self.scales.len() + self.offsets.len()) * size_of::<f32>()
    }
}

/// One query's precomputed quantized-scan context (the i16 query codes live
/// in the caller's scratch buffer).
#[derive(Debug, Clone, Copy)]
pub struct QuantizedQuery {
    /// `‖u‖²` in the kernel's fixed lane order, `u = fl32(q − o)`.
    pub nu: f32,
    /// The float-rounding margin of the approximate squared distance:
    /// `2(d + 32)·ε_f32·(‖u‖ + max_code_norm)²` in f64.
    pub margin: f64,
    /// `2g`: the dot-term factor of the f64 finishing expression.
    pub g2: f64,
    /// `1.02·g`: multiply by a row's `code_abs` for the exact
    /// query-quantization slack of that row's bound.
    pub qslack: f64,
}

/// The int8 shadow of one cluster-contiguous row buffer: codes plus the
/// per-row book-keeping that makes the approximate distance a checkable
/// lower-bound source. Built by [`QuantizedShadow::build`]; consumed by the
/// clustered index's quantized scan.
#[derive(Debug, Clone)]
pub struct QuantizedShadow {
    quantizer: AffineQuantizer,
    /// Row-major int8 codes, same row order as the f32 buffer shadowed.
    codes: Vec<i8>,
    cols: usize,
    /// Per row: `‖y_i‖²` (f32, fixed lane order), `y = fl32(s ∘ X)`.
    code_norms: Vec<f32>,
    /// Per row: `Σ_j |X_{ij}|` — an exact integer `≤ 127·d < 2²⁴`, stored
    /// f32 for the one multiply it feeds per row.
    code_abs: Vec<f32>,
    /// Per row: an upper bound on `‖x_i − x̂_i‖` (f32, rounded up).
    recon_err: Vec<f32>,
    /// `max_i ‖y_i‖` in f64 — the data-side factor of the margin.
    max_code_norm: f64,
    /// `2(d + 32)·ε_f32` — the margin coefficient (see the [module
    /// docs](self) for the inventory it covers).
    margin_coeff: f64,
}

impl QuantizedShadow {
    /// Encodes every row of `data` under `quantizer`. Returns `None` when
    /// the data violates an overflow guard (`max ‖y‖ >` [`MAX_SAFE_NORM`],
    /// a non-finite code norm, or more than [`MAX_QUANTIZED_DIMS`]
    /// dimensions) — callers then simply scan exactly.
    ///
    /// # Panics
    /// Panics if `quantizer` was fitted for a different dimensionality.
    pub fn build(data: DatasetView<'_>, quantizer: AffineQuantizer) -> Option<Self> {
        assert_eq!(quantizer.cols(), data.cols(), "quantizer/data dimensionality mismatch");
        let (rows, cols) = (data.rows(), data.cols());
        if cols > MAX_QUANTIZED_DIMS {
            return None;
        }
        let mut codes = vec![0i8; rows * cols];
        let mut code_norms = Vec::with_capacity(rows);
        let mut code_abs = Vec::with_capacity(rows);
        let mut recon_err = Vec::with_capacity(rows);
        let mut max_code_norm = 0.0f64;
        let mut y = vec![0.0f32; cols];
        for (i, row) in data.rows_iter().enumerate() {
            let out = &mut codes[i * cols..(i + 1) * cols];
            let mut r2 = 0.0f64;
            let mut n2 = 0.0f64;
            let mut abs = 0i32;
            for j in 0..cols {
                let (s, o) = (quantizer.scales[j], quantizer.offsets[j]);
                let c = if s > 0.0 {
                    ((row[j] as f64 - o as f64) / s as f64).round().clamp(-127.0, 127.0) as i8
                } else {
                    0
                };
                out[j] = c;
                abs += (c as i32).abs();
                let yj = s * c as f32;
                y[j] = yj;
                let e = row[j] as f64 - (yj as f64 + o as f64);
                r2 += e * e;
                n2 += yj as f64 * yj as f64;
            }
            code_norms.push(simd::norm_sq(&y));
            code_abs.push(abs as f32);
            recon_err.push(inflate_radius(r2.sqrt()));
            max_code_norm = max_code_norm.max(n2.sqrt());
        }
        let sane = max_code_norm <= MAX_SAFE_NORM && code_norms.iter().all(|v| v.is_finite());
        sane.then(|| {
            let d = cols as f64;
            Self {
                quantizer,
                codes,
                cols,
                code_norms,
                code_abs,
                recon_err,
                max_code_norm,
                margin_coeff: 2.0 * (d + 32.0) * f32::EPSILON as f64,
            }
        })
    }

    /// Number of encoded rows.
    pub fn rows(&self) -> usize {
        self.code_norms.len()
    }

    /// The stored reconstruction radius of row `i` (an upper bound on
    /// `‖x_i − x̂_i‖`).
    #[inline]
    pub fn recon_err(&self, i: usize) -> f32 {
        self.recon_err[i]
    }

    /// `‖y_i‖²` of row `i` — the norm-trick term of its approximate
    /// distance.
    #[inline]
    pub fn code_norm(&self, i: usize) -> f32 {
        self.code_norms[i]
    }

    /// `Σ_j |X_{ij}|` of row `i` — the weight of the query-quantization
    /// slack in its bound.
    #[inline]
    pub fn code_abs(&self, i: usize) -> f32 {
        self.code_abs[i]
    }

    /// Bytes of the int8 scan copy itself — what phase 1 streams per row.
    pub fn code_bytes(&self) -> usize {
        self.codes.len() * size_of::<i8>()
    }

    /// Bytes of the per-row bound book-keeping (code norms, code abs sums,
    /// reconstruction radii) plus the affine parameters.
    pub fn meta_bytes(&self) -> usize {
        self.code_norms.len() * size_of::<f32>()
            + self.code_abs.len() * size_of::<f32>()
            + self.recon_err.len() * size_of::<f32>()
            + self.quantizer.param_bytes()
    }

    /// Per-query preamble: forms `u = fl32(q − o)` then `w = fl32(u ∘ s)`
    /// in `w` (one buffer — `u` is overwritten once its norms are taken),
    /// quantizes `w` onto the single query scale `g` as i16 codes in `v`,
    /// and returns the query context. `None` when `‖u‖ >` [`MAX_SAFE_NORM`]
    /// (or is NaN) and the quantized bound must not be trusted for this
    /// query.
    pub fn prepare_query(&self, q: &[f32], w: &mut Vec<f32>, v: &mut Vec<i16>) -> Option<QuantizedQuery> {
        w.clear();
        w.extend(q.iter().zip(&self.quantizer.offsets).map(|(&x, &o)| x - o));
        let nu = simd::norm_sq(w);
        let un = w.iter().map(|&u| u as f64 * u as f64).sum::<f64>().sqrt();
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN norm must also refuse the shadow
        if !(un <= MAX_SAFE_NORM) {
            return None;
        }
        let mut wmax = 0.0f32;
        for (wj, &s) in w.iter_mut().zip(&self.quantizer.scales) {
            *wj *= s;
            wmax = wmax.max(wj.abs());
        }
        // `w` is finite here (`|u_j| ≤ 10¹⁸`, `s_j·127 ≤ max ‖y‖ ≤ 10¹⁸`),
        // so `g > 0` always admits `|w_j / g| ≤ 8191(1 + 2ε)` — the clamp
        // only shaves division rounding, which the 1.02 slack coefficient
        // absorbs. The `max` with the smallest normal keeps a subnormal
        // `wmax` from collapsing `g` to zero while `w` is still nonzero.
        let g = (wmax / QCODE_MAX as f32).max(f32::MIN_POSITIVE) as f64;
        v.clear();
        v.extend(w.iter().map(|&wj| (wj as f64 / g).round().clamp(-QCODE_MAX, QCODE_MAX) as i16));
        let span = un + self.max_code_norm;
        Some(QuantizedQuery { nu, margin: self.margin_coeff * span * span, g2: 2.0 * g, qslack: 1.02 * g })
    }

    /// Phase-1 tile: fills `out[j]` with the exact integer dot
    /// `Σ v · X_{t0+j}` for code rows `t0..t0 + out.len()` — one byte per
    /// dimension of row traffic. The caller finishes each row's approximate
    /// squared distance in f64 as `(nu + code_norm) − g2 · dot`.
    #[inline]
    pub fn approx_dot_tile(&self, v: &[i16], t0: usize, out: &mut [i32]) {
        simd::dot_q8_row_tile(v, &self.codes, self.cols, t0, out);
    }

    /// The widened-bound test over one dot tile: `keep[j] = false` iff code
    /// row `t0 + j` provably cannot be admitted against the (already
    /// slack-deflated) Euclidean prune threshold — i.e.
    /// `â − margin − qslack·A > (threshold + r)²`. Straight-line f64
    /// arithmetic over parallel slices so the compiler can vectorize it;
    /// `threshold = ∞` (top-k not yet full) keeps every row.
    #[inline]
    pub fn classify_tile(
        &self,
        qq: &QuantizedQuery,
        threshold: f64,
        t0: usize,
        dots: &[i32],
        keep: &mut [bool],
    ) {
        let n = dots.len();
        let cn = &self.code_norms[t0..t0 + n];
        let ab = &self.code_abs[t0..t0 + n];
        let re = &self.recon_err[t0..t0 + n];
        for j in 0..n {
            let a = (qq.nu as f64 + cn[j] as f64) - qq.g2 * dots[j] as f64;
            let lhs = a.max(0.0) - qq.margin - qq.qslack * ab[j] as f64;
            let t = threshold + re[j] as f64;
            // Negated so a NaN on either side keeps the row (prune only on
            // a provable strict exceedance).
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                keep[j] = !(lhs > t * t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_linalg::Matrix;

    fn wavy(n: usize, d: usize, phase: f32) -> Matrix {
        Matrix::from_fn(n, d, |r, c| ((r * d + c) as f32 * 0.37 + phase).sin() * 3.0)
    }

    #[test]
    fn fit_maps_range_onto_symmetric_codes_and_reconstructs_within_half_step() {
        let data = wavy(40, 7, 0.2);
        let q = AffineQuantizer::fit(data.view());
        let sh = QuantizedShadow::build(data.view(), q.clone()).expect("sane data quantizes");
        assert_eq!(sh.rows(), 40);
        for (i, row) in data.view().rows_iter().enumerate() {
            #[allow(clippy::needless_range_loop)] // j indexes codes, scales, offsets, and row alike
            for j in 0..7 {
                let code = sh.codes[i * 7 + j] as f32;
                assert!((-127.0..=127.0).contains(&code));
                let xhat = (q.scales[j] * code) as f64 + q.offsets[j] as f64;
                // Half a quantization step plus rounding headroom.
                let half_step = q.scales[j] as f64 * 0.51 + 1e-6;
                assert!((row[j] as f64 - xhat).abs() <= half_step, "row {i} dim {j}");
            }
            // The stored radius bounds the true f64 reconstruction distance.
            let r2: f64 = (0..7)
                .map(|j| {
                    let xhat = (q.scales[j] * sh.codes[i * 7 + j] as f32) as f64 + q.offsets[j] as f64;
                    (row[j] as f64 - xhat).powi(2)
                })
                .sum();
            assert!(sh.recon_err(i) as f64 >= r2.sqrt(), "row {i}");
        }
    }

    #[test]
    fn constant_columns_get_zero_scale_and_zero_error() {
        let data = Matrix::from_fn(10, 3, |r, c| if c == 1 { 4.25 } else { r as f32 * 0.3 });
        let q = AffineQuantizer::fit(data.view());
        assert_eq!(q.scales[1], 0.0);
        assert_eq!(q.offsets[1], 4.25);
        let sh = QuantizedShadow::build(data.view(), q).expect("sane");
        // A constant column adds nothing to any reconstruction radius.
        let lone = Matrix::from_fn(10, 1, |_, _| 4.25);
        let sh1 = QuantizedShadow::build(lone.view(), AffineQuantizer::fit(lone.view())).expect("sane");
        for i in 0..10 {
            assert_eq!(sh1.recon_err(i), 0.0, "constant column reconstructs exactly");
            assert!(sh.codes[i * 3 + 1] == 0);
        }
    }

    #[test]
    fn approx_distance_matches_reference_within_margin_and_qslack() {
        let data = wavy(33, 16, 0.0);
        let queries = wavy(5, 16, 1.3);
        let sh = QuantizedShadow::build(data.view(), AffineQuantizer::fit(data.view())).expect("sane");
        let (mut w, mut v) = (Vec::new(), Vec::new());
        for qi in 0..queries.rows() {
            let qq = sh.prepare_query(queries.row(qi), &mut w, &mut v).expect("sane query");
            let mut dots = vec![0i32; 33];
            sh.approx_dot_tile(&v, 0, &mut dots);
            for (i, _) in data.view().rows_iter().enumerate() {
                // True squared distance to the reconstruction point in f64.
                let true_sq: f64 = (0..16)
                    .map(|j| {
                        let xhat = (sh.quantizer.scales[j] * sh.codes[i * 16 + j] as f32) as f64
                            + sh.quantizer.offsets[j] as f64;
                        (queries.row(qi)[j] as f64 - xhat).powi(2)
                    })
                    .sum();
                let approx = (qq.nu as f64 + sh.code_norm(i) as f64) - qq.g2 * dots[i] as f64;
                let slack = qq.margin + qq.qslack * sh.code_abs(i) as f64;
                assert!(
                    (approx - true_sq).abs() <= slack,
                    "q {qi} row {i}: |{approx} - {true_sq}| > {slack}"
                );
            }
        }
    }

    #[test]
    fn overflow_guards_reject_extreme_data_queries_and_wide_dims() {
        // Data whose code norms would exceed the safe cap: build must bail.
        let huge = Matrix::from_fn(4, 8, |r, c| if (r + c) % 2 == 0 { 3.0e37 } else { -3.0e37 });
        assert!(QuantizedShadow::build(huge.view(), AffineQuantizer::fit(huge.view())).is_none());
        // Sane data, extreme query: prepare_query must bail for that query.
        let data = wavy(12, 8, 0.0);
        let sh = QuantizedShadow::build(data.view(), AffineQuantizer::fit(data.view())).expect("sane");
        let (mut w, mut v) = (Vec::new(), Vec::new());
        let extreme = vec![3.0e37f32; 8];
        assert!(sh.prepare_query(&extreme, &mut w, &mut v).is_none());
        let fine = vec![0.5f32; 8];
        assert!(sh.prepare_query(&fine, &mut w, &mut v).is_some());
        // Past the i32 accumulator budget: build must bail on width alone.
        let wide = Matrix::from_fn(2, MAX_QUANTIZED_DIMS + 1, |r, c| (r + c) as f32);
        assert!(QuantizedShadow::build(wide.view(), AffineQuantizer::fit(wide.view())).is_none());
    }

    #[test]
    fn query_codes_stay_inside_the_i16_budget() {
        let data = wavy(20, 9, 0.4);
        let sh = QuantizedShadow::build(data.view(), AffineQuantizer::fit(data.view())).expect("sane");
        let (mut w, mut v) = (Vec::new(), Vec::new());
        for scale in [1.0e-30f32, 1.0, 1.0e12] {
            let q: Vec<f32> = (0..9).map(|j| (j as f32 - 4.0) * scale).collect();
            sh.prepare_query(&q, &mut w, &mut v).expect("sane query");
            assert!(v.iter().all(|&c| (c as f64).abs() <= QCODE_MAX), "scale {scale}: {v:?}");
            // The chosen g must reconstruct w within the documented slack.
            let g = {
                let qq = sh.prepare_query(&q, &mut w, &mut v).unwrap();
                qq.g2 * 0.5
            };
            for (&wj, &vj) in w.iter().zip(&v) {
                assert!((wj as f64 - g * vj as f64).abs() <= 0.51 * g, "scale {scale}");
            }
        }
        // All-zero w (query at the offsets): codes all zero, zero slack term.
        let at_offsets: Vec<f32> = sh.quantizer.offsets.clone();
        sh.prepare_query(&at_offsets, &mut w, &mut v).expect("sane query");
        assert!(v.iter().all(|&c| c == 0));
    }

    #[test]
    fn duplicate_rows_share_codes_and_radii() {
        let mut rows = vec![vec![1.5f32, -2.0, 0.25]; 6];
        rows.push(vec![3.0, 1.0, -1.0]);
        let data = Matrix::from_rows(&rows);
        let sh = QuantizedShadow::build(data.view(), AffineQuantizer::fit(data.view())).expect("sane");
        for i in 1..6 {
            assert_eq!(sh.codes[i * 3..(i + 1) * 3], sh.codes[..3]);
            assert_eq!(sh.recon_err(i).to_bits(), sh.recon_err(0).to_bits());
            assert_eq!(sh.code_norms[i].to_bits(), sh.code_norms[0].to_bits());
            assert_eq!(sh.code_abs(i).to_bits(), sh.code_abs(0).to_bits());
        }
    }

    #[test]
    fn subnormal_data_quantizes_without_panicking_and_bounds_stay_valid() {
        let data = Matrix::from_rows(&[vec![2.2e-23f32, 0.0], vec![-1.8e-23, 0.0], vec![1.0e-40, 0.0]]);
        let q = AffineQuantizer::fit(data.view());
        let sh = QuantizedShadow::build(data.view(), q).expect("subnormals are sane");
        for i in 0..3 {
            assert!(sh.recon_err(i).is_finite());
        }
    }
}
