//! Dispatched complex-SIMD FFT stage butterflies (radix 2, 3, 4, 5 and 7),
//! and the symmetric-pair odd-prime butterfly [`bfly_odd`] that the scalar
//! FFT path and the radix-3/5/7 kernels share.
//!
//! These are the vector butterflies of the FFT execution path (EFFT-style
//! cache-blocked execution): a Cooley–Tukey combine stage applies the same
//! twiddle/butterfly pattern to every element of a contiguous row, which maps
//! onto interleaved complex SIMD in two shapes:
//!
//! * **rows** — per-element twiddles. One stage of a single contiguous
//!   transform: `d0/d1/…` are the `m`-long sub-rows of one combine and
//!   `tw[k]` multiplies element `k`. Used by the 1D plan for every line
//!   (including the contiguous innermost axis of an n-D transform).
//! * **cols** — one twiddle broadcast across `b` interleaved lines. The
//!   batched tile path packs `b` strided lines element-interleaved
//!   (`tile[k·b + lane]` = element `k` of line `lane`), so one twiddle load
//!   amortizes over `b` lines and every memory access is contiguous.
//!
//! Bit-compatibility contract: at a fixed [`IsaLevel`], the *rows* and
//! *cols* kernels perform the identical arithmetic per element (same
//! multiply/add shapes, same FMA contraction), so a batched tile transform
//! is bit-identical to transforming its lines one at a time. The property
//! tests in `nufft-fft` pin this. The `Scalar` arm additionally matches the
//! plain `Complex32` operator arithmetic of the scalar butterflies in
//! `nufft-fft` (SSE2 matches it too — its lane ops are the same
//! mul/add/sub, only commuted where IEEE addition commutes exactly);
//! `Avx2Fma` contracts the twiddle multiply with FMA and therefore only
//! matches itself. The odd-radix kernels get this by construction: the
//! butterfly is one generic function over a lane-arithmetic trait
//! implemented for `Complex32`, `__m128` and `__m256`, each op one IEEE
//! operation per float.
//!
//! `StrictScalar` arms defeat auto-vectorization with per-element
//! `black_box`, preserving the Figure-13-style ISA comparison for the FFT
//! phase.

use crate::dispatch::{active_isa, IsaLevel};
use nufft_math::Complex32;

/// One radix-2 combine stage over contiguous rows: for every `k`,
/// `b = d1[k]·tw[k]`, then `d0[k] = d0[k] + b`, `d1[k] = d0[k] − b`.
///
/// # Panics
/// Panics if `d0`, `d1` and `tw` lengths differ.
#[inline]
pub fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
    assert!(d0.len() == tw.len() && d1.len() == tw.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_rows(d0, d1, tw) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly2_rows(d0, d1, tw) },
        IsaLevel::StrictScalar => strict::bfly2_rows(d0, d1, tw),
        _ => scalar::bfly2_rows(d0, d1, tw),
    }
}

/// One radix-4 combine stage over contiguous rows; `tw1/tw2/tw3` are the
/// per-element twiddles of sub-rows 1–3 and `forward` selects the DFT sign.
///
/// # Panics
/// Panics if any row or twiddle length differs from `tw1.len()`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn bfly4_rows(
    d0: &mut [Complex32],
    d1: &mut [Complex32],
    d2: &mut [Complex32],
    d3: &mut [Complex32],
    tw1: &[Complex32],
    tw2: &[Complex32],
    tw3: &[Complex32],
    forward: bool,
) {
    let m = tw1.len();
    assert!(
        d0.len() == m && d1.len() == m && d2.len() == m && d3.len() == m,
        "row length mismatch"
    );
    assert!(tw2.len() == m && tw3.len() == m, "twiddle row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward) },
        IsaLevel::StrictScalar => strict::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward),
        _ => scalar::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward),
    }
}

/// Radix-2 combine with the twiddle multiply already applied (the
/// four-step path hoists it into the transpose gather, see
/// `crate::transpose`): `(d0[k], d1[k]) = (d0[k] + d1[k], d0[k] − d1[k])`.
/// Addition/subtraction round identically at every level, so all arms are
/// bitwise-equal; the `StrictScalar` arm still defeats auto-vectorization
/// for the ISA comparison. Layout-agnostic (rows and interleaved columns
/// alike — no per-element twiddle to line up).
///
/// # Panics
/// Panics if `d0` and `d1` lengths differ.
#[inline]
pub fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
    assert_eq!(d0.len(), d1.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_nt(d0, d1) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly2_nt(d0, d1) },
        IsaLevel::StrictScalar => strict::bfly2_nt(d0, d1),
        _ => scalar::bfly2_nt(d0, d1),
    }
}

/// Radix-4 combine with twiddles already applied (see [`bfly2_nt`]); pure
/// add/sub/±i-rotation, bitwise-equal across all arms.
///
/// # Panics
/// Panics if any row length differs from `d0.len()`.
#[inline]
pub fn bfly4_nt(
    d0: &mut [Complex32],
    d1: &mut [Complex32],
    d2: &mut [Complex32],
    d3: &mut [Complex32],
    forward: bool,
) {
    let m = d0.len();
    assert!(d1.len() == m && d2.len() == m && d3.len() == m, "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_nt(d0, d1, d2, d3, forward) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly4_nt(d0, d1, d2, d3, forward) },
        IsaLevel::StrictScalar => strict::bfly4_nt(d0, d1, d2, d3, forward),
        _ => scalar::bfly4_nt(d0, d1, d2, d3, forward),
    }
}

/// Radix-2 combine over `b` interleaved lines: element `k` of line `lane`
/// lives at `d·[k·b + lane]`, and `tw[k]` is broadcast across all `b` lanes.
///
/// # Panics
/// Panics if `b == 0` or `d0`/`d1` lengths differ from `tw.len()·b`.
#[inline]
pub fn bfly2_cols(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32], b: usize) {
    assert!(b > 0, "batch width must be positive");
    let len = tw.len() * b;
    assert!(d0.len() == len && d1.len() == len, "column block length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly2_cols(d0, d1, tw, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly2_cols(d0, d1, tw, b) },
        IsaLevel::StrictScalar => strict::bfly2_cols(d0, d1, tw, b),
        _ => scalar::bfly2_cols(d0, d1, tw, b),
    }
}

/// Radix-4 combine over `b` interleaved lines (see [`bfly2_cols`] for the
/// layout and [`bfly4_rows`] for the butterfly).
///
/// # Panics
/// Panics if `b == 0` or any block/twiddle length is inconsistent.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn bfly4_cols(
    d0: &mut [Complex32],
    d1: &mut [Complex32],
    d2: &mut [Complex32],
    d3: &mut [Complex32],
    tw1: &[Complex32],
    tw2: &[Complex32],
    tw3: &[Complex32],
    b: usize,
    forward: bool,
) {
    assert!(b > 0, "batch width must be positive");
    let m = tw1.len();
    let len = m * b;
    assert!(
        d0.len() == len && d1.len() == len && d2.len() == len && d3.len() == len,
        "column block length mismatch"
    );
    assert!(tw2.len() == m && tw3.len() == m, "twiddle row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx2::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, b, forward) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, b, forward) },
        IsaLevel::StrictScalar => strict::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, b, forward),
        _ => scalar::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, b, forward),
    }
}

/// In-place R-point DFT for an odd prime `R ∈ {3, 5, 7, 11, 13}`, in
/// symmetric-pair form: with `p_j = t_j + t_{R−j}` and `m_j = t_j − t_{R−j}`
/// (`j ∈ [1, R/2]`),
///
/// `X_k, X_{R−k} = t_0 + Σ_j cos(2πjk/R)·p_j ± sign·i·Σ_j sin(2πjk/R)·m_j`.
///
/// About `(R−1)²/2` real-by-complex products instead of the `R²` complex
/// products of a root-table DFT, all plain multiply/add (no `mul_add`, which
/// is an out-of-line libm call unless FMA is enabled); the cos/sin
/// constants are compile-time per radix. `sign` is −1 for forward, +1 for
/// backward. The vector arms of [`bfly_odd_rows`] / [`bfly_odd_cols`] run
/// this exact operation sequence on every lane.
#[inline(always)]
pub fn bfly_odd<const R: usize>(t: &mut [Complex32; R], sign: f32) {
    odd_bfly(t, sign);
}

/// One radix-`R` combine stage (`R ∈ {3, 5, 7}`) over contiguous rows:
/// sub-row `q` is `d[q·step..][..len]`, and element `k` of sub-row `q ≥ 1`
/// is multiplied by `tw[(q−1)·tw_step + k]` before the [`bfly_odd`]
/// butterfly across the `R` sub-rows.
///
/// # Panics
/// Panics if the sub-rows overlap (`step < len`), `d` is shorter than
/// `(R−1)·step + len`, or the twiddle rows do not fit `tw`.
#[inline]
pub fn bfly_odd_rows<const R: usize>(
    d: &mut [Complex32],
    step: usize,
    tw: &[Complex32],
    tw_step: usize,
    len: usize,
    forward: bool,
) {
    check_odd::<R>(d.len(), step, tw.len(), tw_step, len, 1);
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports; the
        // bounds were checked above.
        IsaLevel::Avx2Fma => unsafe {
            avx2::bfly_odd_rows::<R>(d, step, tw, tw_step, len, forward)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse2::bfly_odd_rows::<R>(d, step, tw, tw_step, len, forward) },
        IsaLevel::StrictScalar => strict::bfly_odd_cols::<R>(d, step, tw, tw_step, len, 1, forward),
        _ => scalar::bfly_odd_cols::<R>(d, step, tw, tw_step, len, 1, forward),
    }
}

/// Radix-`R` combine over `b` interleaved lines (`R ∈ {3, 5, 7}`): element
/// `k` of line `lane` in sub-row `q` is `d[q·step + k·b + lane]`, and
/// `tw[(q−1)·tw_step + k]` is broadcast across the `b` lanes (see
/// [`bfly2_cols`] for the layout, [`bfly_odd_rows`] for the butterfly).
///
/// # Panics
/// Panics if `b == 0` or the geometry does not fit as in [`bfly_odd_rows`]
/// (sub-rows of `len·b` elements).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn bfly_odd_cols<const R: usize>(
    d: &mut [Complex32],
    step: usize,
    tw: &[Complex32],
    tw_step: usize,
    len: usize,
    b: usize,
    forward: bool,
) {
    assert!(b > 0, "batch width must be positive");
    check_odd::<R>(d.len(), step, tw.len(), tw_step, len, b);
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports; the
        // bounds were checked above.
        IsaLevel::Avx2Fma => unsafe {
            avx2::bfly_odd_cols::<R>(d, step, tw, tw_step, len, b, forward)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe {
            sse2::bfly_odd_cols::<R>(d, step, tw, tw_step, len, b, forward)
        },
        IsaLevel::StrictScalar => strict::bfly_odd_cols::<R>(d, step, tw, tw_step, len, b, forward),
        _ => scalar::bfly_odd_cols::<R>(d, step, tw, tw_step, len, b, forward),
    }
}

/// The bounds every odd-radix arm relies on for its unchecked accesses.
fn check_odd<const R: usize>(
    d_len: usize,
    step: usize,
    tw_len: usize,
    tw_step: usize,
    len: usize,
    b: usize,
) {
    assert!(matches!(R, 3 | 5 | 7), "vector odd butterflies cover radix 3, 5 and 7");
    let row = len * b;
    assert!(step >= row && d_len >= (R - 1) * step + row, "odd-radix row geometry mismatch");
    assert!(tw_step >= len && tw_len >= (R - 2) * tw_step + len, "twiddle row length mismatch");
}

/// Complex lane arithmetic [`odd_bfly`] is written against: one
/// `Complex32`, or a vector of interleaved complex values. Every op is one
/// IEEE operation per float, so the scalar and vector instances of the
/// butterfly round identically lane for lane.
trait Lanes: Copy {
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    /// Both parts times a real constant.
    fn scale(self, c: f32) -> Self;
    /// `sign·i·self` for `sign = ±1`: a swap and a sign flip, exact.
    fn rot(self, sign: f32) -> Self;
}

impl Lanes for Complex32 {
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn scale(self, c: f32) -> Self {
        Complex32::scale(self, c)
    }
    #[inline(always)]
    fn rot(self, sign: f32) -> Self {
        Complex32::new(-sign * self.im, sign * self.re)
    }
}

/// `cos(2πi/R)` and `sin(2πi/R)` for `i ∈ [1, R/2]` (entry `i − 1`),
/// correctly rounded to `f32`; unused entries are zero.
struct OddRoots<const R: usize>;

impl<const R: usize> OddRoots<R> {
    const COS_SIN: ([f32; 6], [f32; 6]) = match R {
        3 => ([-0.5, 0.0, 0.0, 0.0, 0.0, 0.0], [0.866_025_4, 0.0, 0.0, 0.0, 0.0, 0.0]),
        5 => (
            [0.309_017, -0.809_017, 0.0, 0.0, 0.0, 0.0],
            [0.951_056_54, 0.587_785_24, 0.0, 0.0, 0.0, 0.0],
        ),
        7 => (
            [0.623_489_8, -0.222_520_93, -0.900_968_85, 0.0, 0.0, 0.0],
            [0.781_831_5, 0.974_927_9, 0.433_883_73, 0.0, 0.0, 0.0],
        ),
        11 => (
            [0.841_253_5, 0.415_415_02, -0.142_314_84, -0.654_860_73, -0.959_493, 0.0],
            [0.540_640_83, 0.909_631_97, 0.989_821_43, 0.755_749_6, 0.281_732_56, 0.0],
        ),
        13 => (
            [0.885_456, 0.568_064_75, 0.120_536_68, -0.354_604_9, -0.748_510_8, -0.970_941_84],
            [0.464_723_17, 0.822_983_86, 0.992_708_86, 0.935_016_2, 0.663_122_65, 0.239_315_66],
        ),
        _ => panic!("odd butterfly radix must be 3, 5, 7, 11 or 13"),
    };
}

/// The symmetric-pair butterfly of [`bfly_odd`] over any [`Lanes`] type.
/// Sums run in increasing `j`.
#[inline(always)]
fn odd_bfly<V: Lanes, const R: usize>(t: &mut [V; R], sign: f32) {
    let (cos, sin) = OddRoots::<R>::COS_SIN;
    let h = R / 2;
    let a = t[0];
    let mut p = [a; 6];
    let mut m = [a; 6];
    let mut sum = a;
    for j in 1..=h {
        p[j - 1] = t[j].add(t[R - j]);
        m[j - 1] = t[j].sub(t[R - j]);
        sum = sum.add(p[j - 1]);
    }
    for k in 1..=h {
        // j = 1 contributes cos/sin(2πk/R); later j use (jk mod R), folded
        // into [1, R/2] by symmetry.
        let mut re = a.add(p[0].scale(cos[k - 1]));
        let mut im = m[0].scale(sin[k - 1]);
        for j in 2..=h {
            let i = (j * k) % R;
            let (c, s) =
                if i <= h { (cos[i - 1], sin[i - 1]) } else { (cos[R - i - 1], -sin[R - i - 1]) };
            re = re.add(p[j - 1].scale(c));
            im = im.add(m[j - 1].scale(s));
        }
        let rot = im.rot(sign);
        t[k] = re.add(rot);
        t[R - k] = re.sub(rot);
    }
    t[0] = sum;
}

/// One element of a radix-`R` combine: element `i` of sub-row `q ≥ 1`
/// times its twiddle `w(q)` (multiplied by `mul`, the arm's scalar complex
/// multiply), then [`odd_bfly`] across the `R` sub-rows `step` apart.
#[inline(always)]
fn odd_one<const R: usize>(
    d: &mut [Complex32],
    step: usize,
    i: usize,
    w: impl Fn(usize) -> Complex32,
    mul: impl Fn(Complex32, Complex32) -> Complex32,
    sign: f32,
) {
    let mut t = [Complex32::ZERO; R];
    t[0] = d[i];
    for q in 1..R {
        t[q] = mul(d[q * step + i], w(q));
    }
    odd_bfly(&mut t, sign);
    for (q, &v) in t.iter().enumerate() {
        d[q * step + i] = v;
    }
}

/// Scalar reference arms: plain `Complex32` operator arithmetic, identical
/// element-for-element to the scalar butterflies in `nufft-fft`.
mod scalar {
    use super::Complex32;

    /// `(a + b·w, a − b·w)` with plain complex arithmetic.
    #[inline(always)]
    pub(super) fn bfly2_one(a: Complex32, b: Complex32, w: Complex32) -> (Complex32, Complex32) {
        let t = b * w;
        (a + t, a - t)
    }

    /// Twiddled 4-point DFT of `(a, b, c, d)`; `sign` is −1 forward, +1
    /// backward (the arithmetic of `nufft-fft`'s `bfly4`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_one(
        a: Complex32,
        b: Complex32,
        c: Complex32,
        d: Complex32,
        w1: Complex32,
        w2: Complex32,
        w3: Complex32,
        sign: f32,
    ) -> (Complex32, Complex32, Complex32, Complex32) {
        let (b, c, d) = (b * w1, c * w2, d * w3);
        let s02 = a + c;
        let d02 = a - c;
        let s13 = b + d;
        let d13 = b - d;
        let j = Complex32::new(-sign * d13.im, sign * d13.re);
        (s02 + s13, d02 + j, s02 - s13, d02 - j)
    }

    pub(super) fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        for k in 0..tw.len() {
            let (x, y) = bfly2_one(d0[k], d1[k], tw[k]);
            d0[k] = x;
            d1[k] = y;
        }
    }

    pub(super) fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        for k in 0..d0.len() {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..d0.len() {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            let (x0, x1, x2, x3) =
                bfly4_one(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
        }
    }

    pub(super) fn bfly2_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        tw: &[Complex32],
        b: usize,
    ) {
        for (k, &w) in tw.iter().enumerate() {
            for i in k * b..(k + 1) * b {
                let (x, y) = bfly2_one(d0[i], d1[i], w);
                d0[i] = x;
                d1[i] = y;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            for i in k * b..(k + 1) * b {
                let (x0, x1, x2, x3) =
                    bfly4_one(d0[i], d1[i], d2[i], d3[i], tw1[k], tw2[k], tw3[k], sign);
                d0[i] = x0;
                d1[i] = x1;
                d2[i] = x2;
                d3[i] = x3;
            }
        }
    }

    /// Radix-`R` combine, one element at a time; rows are the `b = 1` case.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly_odd_cols<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..len {
            for i in k * b..(k + 1) * b {
                super::odd_one::<R>(d, step, i, |q| tw[(q - 1) * tw_step + k], |a, w| a * w, sign);
            }
        }
    }
}

/// Strict-scalar arms: per-element `black_box` forces element-at-a-time
/// memory traffic, defeating SLP/loop auto-vectorization (the paper's
/// true-scalar baseline). Same arithmetic as [`scalar`].
mod strict {
    use super::Complex32;
    use core::hint::black_box;

    pub(super) fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        for k in 0..tw.len() {
            let a = *black_box(&d0[k]);
            let t = *black_box(&d1[k]) * tw[k];
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        for k in 0..d0.len() {
            let a = *black_box(&d0[k]);
            let t = *black_box(&d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
        }
    }

    pub(super) fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..d0.len() {
            let a = *black_box(&d0[k]);
            let b = *black_box(&d1[k]);
            let c = *black_box(&d2[k]);
            let d = *black_box(&d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            let a = *black_box(&d0[k]);
            let b = *black_box(&d1[k]) * tw1[k];
            let c = *black_box(&d2[k]) * tw2[k];
            let d = *black_box(&d3[k]) * tw3[k];
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
        }
    }

    pub(super) fn bfly2_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        tw: &[Complex32],
        b: usize,
    ) {
        for (k, &w) in tw.iter().enumerate() {
            for i in k * b..(k + 1) * b {
                let a = *black_box(&d0[i]);
                let t = *black_box(&d1[i]) * w;
                d0[i] = a + t;
                d1[i] = a - t;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly4_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        for k in 0..tw1.len() {
            for i in k * b..(k + 1) * b {
                let a = *black_box(&d0[i]);
                let bb = *black_box(&d1[i]) * tw1[k];
                let c = *black_box(&d2[i]) * tw2[k];
                let d = *black_box(&d3[i]) * tw3[k];
                let s02 = a + c;
                let d02 = a - c;
                let s13 = bb + d;
                let d13 = bb - d;
                let j = Complex32::new(-sign * d13.im, sign * d13.re);
                d0[i] = s02 + s13;
                d1[i] = d02 + j;
                d2[i] = s02 - s13;
                d3[i] = d02 - j;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn bfly_odd_cols<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let mut t = [Complex32::ZERO; R];
        for k in 0..len {
            for i in k * b..(k + 1) * b {
                t[0] = *black_box(&d[i]);
                for q in 1..R {
                    t[q] = *black_box(&d[q * step + i]) * tw[(q - 1) * tw_step + k];
                }
                super::odd_bfly(&mut t, sign);
                for (q, &v) in t.iter().enumerate() {
                    d[q * step + i] = v;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::Complex32;
    use core::arch::x86_64::*;

    /// Complex multiply of two interleaved pairs: `re = ar·wr − ai·wi`,
    /// `im = ai·wr + ar·wi` — the plain (non-FMA) shape, so lane results
    /// are bitwise equal to scalar `Complex32` multiplication.
    #[inline(always)]
    unsafe fn cmul2(a: __m128, w: __m128) -> __m128 {
        let wr = _mm_shuffle_ps(w, w, 0b1010_0000); // [wr0, wr0, wr1, wr1]
        let wi = _mm_shuffle_ps(w, w, 0b1111_0101); // [wi0, wi0, wi1, wi1]
        let asw = _mm_shuffle_ps(a, a, 0b1011_0001); // [ai0, ar0, ai1, ar1]
        let t1 = _mm_mul_ps(a, wr); // [ar·wr, ai·wr, …]
        let t2 = _mm_mul_ps(asw, wi); // [ai·wi, ar·wi, …]
                                      // Negate the real lanes of t2, then add: re = ar·wr − ai·wi.
        let neg_re = _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN));
        _mm_add_ps(t1, _mm_xor_ps(t2, neg_re))
    }

    /// Broadcast-twiddle complex multiply, the lane arithmetic of [`cmul2`].
    #[inline(always)]
    unsafe fn cmul2_bcast(x: __m128, wr: __m128, wi: __m128) -> __m128 {
        let neg_re = _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN));
        let xsw = _mm_shuffle_ps(x, x, 0b1011_0001);
        _mm_add_ps(_mm_mul_ps(x, wr), _mm_xor_ps(_mm_mul_ps(xsw, wi), neg_re))
    }

    /// `sign·i·z` per complex lane: swap re/im then negate one lane.
    #[inline(always)]
    unsafe fn rot90_2(z: __m128, forward: bool) -> __m128 {
        let sw = _mm_shuffle_ps(z, z, 0b1011_0001); // [im, re] per complex
                                                    // forward (sign −1): j = (im, −re); backward: j = (−im, re).
        let mask = if forward {
            _mm_castsi128_ps(_mm_set_epi32(i32::MIN, 0, i32::MIN, 0))
        } else {
            _mm_castsi128_ps(_mm_set_epi32(0, i32::MIN, 0, i32::MIN))
        };
        _mm_xor_ps(sw, mask)
    }

    /// # Safety
    /// CPU must support SSE2 (guaranteed on x86_64; kept unsafe for raw
    /// pointer use and symmetry with the AVX arm).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        let m = tw.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut k = 0;
        while k + 2 <= m {
            let a = _mm_loadu_ps(p0.add(2 * k));
            let t = cmul2(_mm_loadu_ps(p1.add(2 * k)), _mm_loadu_ps(pw.add(2 * k)));
            _mm_storeu_ps(p0.add(2 * k), _mm_add_ps(a, t));
            _mm_storeu_ps(p1.add(2 * k), _mm_sub_ps(a, t));
            k += 2;
        }
        while k < m {
            // Plain complex mul matches cmul2 lane arithmetic bitwise.
            let a = d0[k];
            let t = d1[k] * tw[k];
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let m = tw1.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let (w1, w2, w3) =
            (tw1.as_ptr() as *const f32, tw2.as_ptr() as *const f32, tw3.as_ptr() as *const f32);
        let mut k = 0;
        while k + 2 <= m {
            let o = 2 * k;
            let a = _mm_loadu_ps(p0.add(o));
            let b = cmul2(_mm_loadu_ps(p1.add(o)), _mm_loadu_ps(w1.add(o)));
            let c = cmul2(_mm_loadu_ps(p2.add(o)), _mm_loadu_ps(w2.add(o)));
            let d = cmul2(_mm_loadu_ps(p3.add(o)), _mm_loadu_ps(w3.add(o)));
            let s02 = _mm_add_ps(a, c);
            let d02 = _mm_sub_ps(a, c);
            let s13 = _mm_add_ps(b, d);
            let j = rot90_2(_mm_sub_ps(b, d), forward);
            _mm_storeu_ps(p0.add(o), _mm_add_ps(s02, s13));
            _mm_storeu_ps(p1.add(o), _mm_add_ps(d02, j));
            _mm_storeu_ps(p2.add(o), _mm_sub_ps(s02, s13));
            _mm_storeu_ps(p3.add(o), _mm_sub_ps(d02, j));
            k += 2;
        }
        while k < m {
            let (x0, x1, x2, x3) =
                super::scalar::bfly4_one(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        let m = d0.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let mut k = 0;
        while k + 2 <= m {
            let a = _mm_loadu_ps(p0.add(2 * k));
            let t = _mm_loadu_ps(p1.add(2 * k));
            _mm_storeu_ps(p0.add(2 * k), _mm_add_ps(a, t));
            _mm_storeu_ps(p1.add(2 * k), _mm_sub_ps(a, t));
            k += 2;
        }
        while k < m {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let m = d0.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let mut k = 0;
        while k + 2 <= m {
            let o = 2 * k;
            let a = _mm_loadu_ps(p0.add(o));
            let b = _mm_loadu_ps(p1.add(o));
            let c = _mm_loadu_ps(p2.add(o));
            let d = _mm_loadu_ps(p3.add(o));
            let s02 = _mm_add_ps(a, c);
            let d02 = _mm_sub_ps(a, c);
            let s13 = _mm_add_ps(b, d);
            let j = rot90_2(_mm_sub_ps(b, d), forward);
            _mm_storeu_ps(p0.add(o), _mm_add_ps(s02, s13));
            _mm_storeu_ps(p1.add(o), _mm_add_ps(d02, j));
            _mm_storeu_ps(p2.add(o), _mm_sub_ps(s02, s13));
            _mm_storeu_ps(p3.add(o), _mm_sub_ps(d02, j));
            k += 2;
        }
        while k < m {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly2_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        tw: &[Complex32],
        b: usize,
    ) {
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        for (k, &w) in tw.iter().enumerate() {
            let wr = _mm_set1_ps(w.re);
            let wi = _mm_set1_ps(w.im);
            let mut lane = 0;
            while lane + 2 <= b {
                let o = 2 * (k * b + lane);
                let a = _mm_loadu_ps(p0.add(o));
                let t = cmul2_bcast(_mm_loadu_ps(p1.add(o)), wr, wi);
                _mm_storeu_ps(p0.add(o), _mm_add_ps(a, t));
                _mm_storeu_ps(p1.add(o), _mm_sub_ps(a, t));
                lane += 2;
            }
            while lane < b {
                let i = k * b + lane;
                let a = d0[i];
                let t = d1[i] * w;
                d0[i] = a + t;
                d1[i] = a - t;
                lane += 1;
            }
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        for k in 0..tw1.len() {
            let (w1, w2, w3) = (tw1[k], tw2[k], tw3[k]);
            let (w1r, w1i) = (_mm_set1_ps(w1.re), _mm_set1_ps(w1.im));
            let (w2r, w2i) = (_mm_set1_ps(w2.re), _mm_set1_ps(w2.im));
            let (w3r, w3i) = (_mm_set1_ps(w3.re), _mm_set1_ps(w3.im));
            let mut lane = 0;
            while lane + 2 <= b {
                let o = 2 * (k * b + lane);
                let a = _mm_loadu_ps(p0.add(o));
                let bb = cmul2_bcast(_mm_loadu_ps(p1.add(o)), w1r, w1i);
                let c = cmul2_bcast(_mm_loadu_ps(p2.add(o)), w2r, w2i);
                let d = cmul2_bcast(_mm_loadu_ps(p3.add(o)), w3r, w3i);
                let s02 = _mm_add_ps(a, c);
                let d02 = _mm_sub_ps(a, c);
                let s13 = _mm_add_ps(bb, d);
                let j = rot90_2(_mm_sub_ps(bb, d), forward);
                _mm_storeu_ps(p0.add(o), _mm_add_ps(s02, s13));
                _mm_storeu_ps(p1.add(o), _mm_add_ps(d02, j));
                _mm_storeu_ps(p2.add(o), _mm_sub_ps(s02, s13));
                _mm_storeu_ps(p3.add(o), _mm_sub_ps(d02, j));
                lane += 2;
            }
            while lane < b {
                let i = k * b + lane;
                let (x0, x1, x2, x3) =
                    super::scalar::bfly4_one(d0[i], d1[i], d2[i], d3[i], w1, w2, w3, sign);
                d0[i] = x0;
                d1[i] = x1;
                d2[i] = x2;
                d3[i] = x3;
                lane += 1;
            }
        }
    }

    impl super::Lanes for __m128 {
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { _mm_add_ps(self, o) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { _mm_sub_ps(self, o) }
        }
        #[inline(always)]
        fn scale(self, c: f32) -> Self {
            unsafe { _mm_mul_ps(self, _mm_set1_ps(c)) }
        }
        #[inline(always)]
        fn rot(self, sign: f32) -> Self {
            unsafe { rot90_2(self, sign < 0.0) }
        }
    }

    /// # Safety
    /// See [`bfly2_rows`]; the caller checked the geometry (`check_odd`).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn bfly_odd_rows<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let pd = d.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut t = [_mm_setzero_ps(); R];
        let mut k = 0;
        while k + 2 <= len {
            t[0] = _mm_loadu_ps(pd.add(2 * k));
            for (q, tq) in t.iter_mut().enumerate().skip(1) {
                let x = _mm_loadu_ps(pd.add(2 * (q * step + k)));
                *tq = cmul2(x, _mm_loadu_ps(pw.add(2 * ((q - 1) * tw_step + k))));
            }
            super::odd_bfly(&mut t, sign);
            for (q, &v) in t.iter().enumerate() {
                _mm_storeu_ps(pd.add(2 * (q * step + k)), v);
            }
            k += 2;
        }
        while k < len {
            super::odd_one::<R>(d, step, k, |q| tw[(q - 1) * tw_step + k], |a, w| a * w, sign);
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly_odd_rows`].
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly_odd_cols<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let pd = d.as_mut_ptr() as *mut f32;
        let mut t = [_mm_setzero_ps(); R];
        let (mut wr, mut wi) = ([_mm_setzero_ps(); R], [_mm_setzero_ps(); R]);
        for k in 0..len {
            for q in 1..R {
                let w = tw[(q - 1) * tw_step + k];
                wr[q] = _mm_set1_ps(w.re);
                wi[q] = _mm_set1_ps(w.im);
            }
            let mut lane = 0;
            while lane + 2 <= b {
                let o = k * b + lane;
                t[0] = _mm_loadu_ps(pd.add(2 * o));
                for q in 1..R {
                    t[q] = cmul2_bcast(_mm_loadu_ps(pd.add(2 * (q * step + o))), wr[q], wi[q]);
                }
                super::odd_bfly(&mut t, sign);
                for (q, &v) in t.iter().enumerate() {
                    _mm_storeu_ps(pd.add(2 * (q * step + o)), v);
                }
                lane += 2;
            }
            while lane < b {
                let w = |q: usize| tw[(q - 1) * tw_step + k];
                super::odd_one::<R>(d, step, k * b + lane, w, |a, w| a * w, sign);
                lane += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::Complex32;
    use core::arch::x86_64::*;

    /// FMA-contracted complex multiply of four interleaved pairs:
    /// `re = fma(ar, wr, −ai·wi)`, `im = fma(ai, wr, ar·wi)` via
    /// `fmaddsub`. [`cmul_one`] is its exact scalar equivalent.
    #[inline(always)]
    unsafe fn cmul4(a: __m256, w: __m256) -> __m256 {
        let wr = _mm256_moveldup_ps(w);
        let wi = _mm256_movehdup_ps(w);
        let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
        _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi))
    }

    /// Broadcast-twiddle variant of [`cmul4`] (same per-lane arithmetic).
    #[inline(always)]
    unsafe fn cmul4_bcast(a: __m256, wr: __m256, wi: __m256) -> __m256 {
        let asw = _mm256_shuffle_ps(a, a, 0b1011_0001);
        _mm256_fmaddsub_ps(a, wr, _mm256_mul_ps(asw, wi))
    }

    /// Scalar tail op matching [`cmul4`] bit-for-bit (FMA contraction via
    /// `mul_add`, which lowers to the same fused operation).
    #[inline(always)]
    #[allow(clippy::disallowed_methods)] // reason: only inlined into `avx2,fma` code, where it is one vfmadd
    fn cmul_one(a: Complex32, w: Complex32) -> Complex32 {
        let tr = a.im * w.im;
        let ti = a.re * w.im;
        Complex32::new(a.re.mul_add(w.re, -tr), a.im.mul_add(w.re, ti))
    }

    /// Scalar tail of the radix-4 butterfly with FMA-contracted twiddle
    /// multiplies (matches the vector arithmetic lane-for-lane).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn bfly4_one_fma(
        a: Complex32,
        b: Complex32,
        c: Complex32,
        d: Complex32,
        w1: Complex32,
        w2: Complex32,
        w3: Complex32,
        sign: f32,
    ) -> (Complex32, Complex32, Complex32, Complex32) {
        let (b, c, d) = (cmul_one(b, w1), cmul_one(c, w2), cmul_one(d, w3));
        let s02 = a + c;
        let d02 = a - c;
        let s13 = b + d;
        let d13 = b - d;
        let j = Complex32::new(-sign * d13.im, sign * d13.re);
        (s02 + s13, d02 + j, s02 - s13, d02 - j)
    }

    /// `sign·i·z` per complex lane.
    #[inline(always)]
    unsafe fn rot90_4(z: __m256, forward: bool) -> __m256 {
        let sw = _mm256_shuffle_ps(z, z, 0b1011_0001);
        let mask = if forward {
            _mm256_castsi256_ps(_mm256_set_epi32(
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
            ))
        } else {
            _mm256_castsi256_ps(_mm256_set_epi32(
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
                0,
                i32::MIN,
            ))
        };
        _mm256_xor_ps(sw, mask)
    }

    /// # Safety
    /// CPU must support AVX2 and FMA (checked by the dispatcher).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_rows(d0: &mut [Complex32], d1: &mut [Complex32], tw: &[Complex32]) {
        let m = tw.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut k = 0;
        while k + 4 <= m {
            let a = _mm256_loadu_ps(p0.add(2 * k));
            let t = cmul4(_mm256_loadu_ps(p1.add(2 * k)), _mm256_loadu_ps(pw.add(2 * k)));
            _mm256_storeu_ps(p0.add(2 * k), _mm256_add_ps(a, t));
            _mm256_storeu_ps(p1.add(2 * k), _mm256_sub_ps(a, t));
            k += 4;
        }
        while k < m {
            let a = d0[k];
            let t = cmul_one(d1[k], tw[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_rows(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        forward: bool,
    ) {
        let m = tw1.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let (w1, w2, w3) =
            (tw1.as_ptr() as *const f32, tw2.as_ptr() as *const f32, tw3.as_ptr() as *const f32);
        let mut k = 0;
        while k + 4 <= m {
            let o = 2 * k;
            let a = _mm256_loadu_ps(p0.add(o));
            let b = cmul4(_mm256_loadu_ps(p1.add(o)), _mm256_loadu_ps(w1.add(o)));
            let c = cmul4(_mm256_loadu_ps(p2.add(o)), _mm256_loadu_ps(w2.add(o)));
            let d = cmul4(_mm256_loadu_ps(p3.add(o)), _mm256_loadu_ps(w3.add(o)));
            let s02 = _mm256_add_ps(a, c);
            let d02 = _mm256_sub_ps(a, c);
            let s13 = _mm256_add_ps(b, d);
            let j = rot90_4(_mm256_sub_ps(b, d), forward);
            _mm256_storeu_ps(p0.add(o), _mm256_add_ps(s02, s13));
            _mm256_storeu_ps(p1.add(o), _mm256_add_ps(d02, j));
            _mm256_storeu_ps(p2.add(o), _mm256_sub_ps(s02, s13));
            _mm256_storeu_ps(p3.add(o), _mm256_sub_ps(d02, j));
            k += 4;
        }
        while k < m {
            let (x0, x1, x2, x3) =
                bfly4_one_fma(d0[k], d1[k], d2[k], d3[k], tw1[k], tw2[k], tw3[k], sign);
            d0[k] = x0;
            d1[k] = x1;
            d2[k] = x2;
            d3[k] = x3;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_nt(d0: &mut [Complex32], d1: &mut [Complex32]) {
        let m = d0.len();
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        let mut k = 0;
        while k + 4 <= m {
            let a = _mm256_loadu_ps(p0.add(2 * k));
            let t = _mm256_loadu_ps(p1.add(2 * k));
            _mm256_storeu_ps(p0.add(2 * k), _mm256_add_ps(a, t));
            _mm256_storeu_ps(p1.add(2 * k), _mm256_sub_ps(a, t));
            k += 4;
        }
        while k < m {
            let (a, t) = (d0[k], d1[k]);
            d0[k] = a + t;
            d1[k] = a - t;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly4_nt(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        forward: bool,
    ) {
        let m = d0.len();
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        let mut k = 0;
        while k + 4 <= m {
            let o = 2 * k;
            let a = _mm256_loadu_ps(p0.add(o));
            let b = _mm256_loadu_ps(p1.add(o));
            let c = _mm256_loadu_ps(p2.add(o));
            let d = _mm256_loadu_ps(p3.add(o));
            let s02 = _mm256_add_ps(a, c);
            let d02 = _mm256_sub_ps(a, c);
            let s13 = _mm256_add_ps(b, d);
            let j = rot90_4(_mm256_sub_ps(b, d), forward);
            _mm256_storeu_ps(p0.add(o), _mm256_add_ps(s02, s13));
            _mm256_storeu_ps(p1.add(o), _mm256_add_ps(d02, j));
            _mm256_storeu_ps(p2.add(o), _mm256_sub_ps(s02, s13));
            _mm256_storeu_ps(p3.add(o), _mm256_sub_ps(d02, j));
            k += 4;
        }
        while k < m {
            let (a, b, c, d) = (d0[k], d1[k], d2[k], d3[k]);
            let s02 = a + c;
            let d02 = a - c;
            let s13 = b + d;
            let d13 = b - d;
            let j = Complex32::new(-sign * d13.im, sign * d13.re);
            d0[k] = s02 + s13;
            d1[k] = d02 + j;
            d2[k] = s02 - s13;
            d3[k] = d02 - j;
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly2_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        tw: &[Complex32],
        b: usize,
    ) {
        let p0 = d0.as_mut_ptr() as *mut f32;
        let p1 = d1.as_mut_ptr() as *mut f32;
        for (k, &w) in tw.iter().enumerate() {
            let wr = _mm256_set1_ps(w.re);
            let wi = _mm256_set1_ps(w.im);
            let mut lane = 0;
            while lane + 4 <= b {
                let o = 2 * (k * b + lane);
                let a = _mm256_loadu_ps(p0.add(o));
                let t = cmul4_bcast(_mm256_loadu_ps(p1.add(o)), wr, wi);
                _mm256_storeu_ps(p0.add(o), _mm256_add_ps(a, t));
                _mm256_storeu_ps(p1.add(o), _mm256_sub_ps(a, t));
                lane += 4;
            }
            while lane < b {
                let i = k * b + lane;
                let a = d0[i];
                let t = cmul_one(d1[i], w);
                d0[i] = a + t;
                d1[i] = a - t;
                lane += 1;
            }
        }
    }

    /// # Safety
    /// See [`bfly2_rows`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly4_cols(
        d0: &mut [Complex32],
        d1: &mut [Complex32],
        d2: &mut [Complex32],
        d3: &mut [Complex32],
        tw1: &[Complex32],
        tw2: &[Complex32],
        tw3: &[Complex32],
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let (p0, p1) = (d0.as_mut_ptr() as *mut f32, d1.as_mut_ptr() as *mut f32);
        let (p2, p3) = (d2.as_mut_ptr() as *mut f32, d3.as_mut_ptr() as *mut f32);
        for k in 0..tw1.len() {
            let (w1, w2, w3) = (tw1[k], tw2[k], tw3[k]);
            let (w1r, w1i) = (_mm256_set1_ps(w1.re), _mm256_set1_ps(w1.im));
            let (w2r, w2i) = (_mm256_set1_ps(w2.re), _mm256_set1_ps(w2.im));
            let (w3r, w3i) = (_mm256_set1_ps(w3.re), _mm256_set1_ps(w3.im));
            let mut lane = 0;
            while lane + 4 <= b {
                let o = 2 * (k * b + lane);
                let a = _mm256_loadu_ps(p0.add(o));
                let bb = cmul4_bcast(_mm256_loadu_ps(p1.add(o)), w1r, w1i);
                let c = cmul4_bcast(_mm256_loadu_ps(p2.add(o)), w2r, w2i);
                let d = cmul4_bcast(_mm256_loadu_ps(p3.add(o)), w3r, w3i);
                let s02 = _mm256_add_ps(a, c);
                let d02 = _mm256_sub_ps(a, c);
                let s13 = _mm256_add_ps(bb, d);
                let j = rot90_4(_mm256_sub_ps(bb, d), forward);
                _mm256_storeu_ps(p0.add(o), _mm256_add_ps(s02, s13));
                _mm256_storeu_ps(p1.add(o), _mm256_add_ps(d02, j));
                _mm256_storeu_ps(p2.add(o), _mm256_sub_ps(s02, s13));
                _mm256_storeu_ps(p3.add(o), _mm256_sub_ps(d02, j));
                lane += 4;
            }
            while lane < b {
                let i = k * b + lane;
                let (x0, x1, x2, x3) = bfly4_one_fma(d0[i], d1[i], d2[i], d3[i], w1, w2, w3, sign);
                d0[i] = x0;
                d1[i] = x1;
                d2[i] = x2;
                d3[i] = x3;
                lane += 1;
            }
        }
    }

    impl super::Lanes for __m256 {
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { _mm256_add_ps(self, o) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { _mm256_sub_ps(self, o) }
        }
        #[inline(always)]
        fn scale(self, c: f32) -> Self {
            unsafe { _mm256_mul_ps(self, _mm256_set1_ps(c)) }
        }
        #[inline(always)]
        fn rot(self, sign: f32) -> Self {
            unsafe { rot90_4(self, sign < 0.0) }
        }
    }

    /// # Safety
    /// See [`bfly2_rows`]; the caller checked the geometry (`check_odd`).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bfly_odd_rows<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let pd = d.as_mut_ptr() as *mut f32;
        let pw = tw.as_ptr() as *const f32;
        let mut t = [_mm256_setzero_ps(); R];
        let mut k = 0;
        while k + 4 <= len {
            t[0] = _mm256_loadu_ps(pd.add(2 * k));
            for (q, tq) in t.iter_mut().enumerate().skip(1) {
                let x = _mm256_loadu_ps(pd.add(2 * (q * step + k)));
                *tq = cmul4(x, _mm256_loadu_ps(pw.add(2 * ((q - 1) * tw_step + k))));
            }
            super::odd_bfly(&mut t, sign);
            for (q, &v) in t.iter().enumerate() {
                _mm256_storeu_ps(pd.add(2 * (q * step + k)), v);
            }
            k += 4;
        }
        while k < len {
            super::odd_one::<R>(d, step, k, |q| tw[(q - 1) * tw_step + k], cmul_one, sign);
            k += 1;
        }
    }

    /// # Safety
    /// See [`bfly_odd_rows`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn bfly_odd_cols<const R: usize>(
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        tw_step: usize,
        len: usize,
        b: usize,
        forward: bool,
    ) {
        let sign = if forward { -1.0f32 } else { 1.0 };
        let pd = d.as_mut_ptr() as *mut f32;
        let mut t = [_mm256_setzero_ps(); R];
        let (mut wr, mut wi) = ([_mm256_setzero_ps(); R], [_mm256_setzero_ps(); R]);
        for k in 0..len {
            for q in 1..R {
                let w = tw[(q - 1) * tw_step + k];
                wr[q] = _mm256_set1_ps(w.re);
                wi[q] = _mm256_set1_ps(w.im);
            }
            let mut lane = 0;
            while lane + 4 <= b {
                let o = k * b + lane;
                t[0] = _mm256_loadu_ps(pd.add(2 * o));
                for q in 1..R {
                    let x = _mm256_loadu_ps(pd.add(2 * (q * step + o)));
                    t[q] = cmul4_bcast(x, wr[q], wi[q]);
                }
                super::odd_bfly(&mut t, sign);
                for (q, &v) in t.iter().enumerate() {
                    _mm256_storeu_ps(pd.add(2 * (q * step + o)), v);
                }
                lane += 4;
            }
            while lane < b {
                let w = |q: usize| tw[(q - 1) * tw_step + k];
                super::odd_one::<R>(d, step, k * b + lane, w, cmul_one, sign);
                lane += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override, test_isa_guard};
    use nufft_math::Complex64;

    fn demo(n: usize, salt: u32) -> Vec<Complex32> {
        (0..n)
            .map(|i| {
                let x = (i as f32 + salt as f32 * 0.37) * 0.61;
                Complex32::new((1.3 * x).sin() + 0.2, (0.7 * x).cos() - 0.1)
            })
            .collect()
    }

    fn twiddles(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|k| Complex64::cis(-core::f64::consts::TAU * k as f64 / (2 * n) as f64).to_f32())
            .collect()
    }

    /// f64 oracle for one radix-2 combine element.
    fn naive_bfly2(a: Complex32, b: Complex32, w: Complex32) -> (Complex32, Complex32) {
        let t = b.to_f64() * w.to_f64();
        ((a.to_f64() + t).to_f32(), (a.to_f64() - t).to_f32())
    }

    fn for_each_isa(mut f: impl FnMut(IsaLevel)) {
        let _guard = test_isa_guard();
        let detected = detect_isa();
        for level in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
            if level <= detected {
                set_isa_override(level).unwrap();
                f(level);
            }
        }
        set_isa_override(detected).unwrap();
    }

    #[test]
    fn bfly2_rows_matches_oracle_at_every_level() {
        for m in [1usize, 2, 3, 4, 5, 7, 8, 13, 16] {
            let tw = twiddles(m);
            let a0 = demo(m, 1);
            let b0 = demo(m, 2);
            for_each_isa(|level| {
                let mut a = a0.clone();
                let mut b = b0.clone();
                bfly2_rows(&mut a, &mut b, &tw);
                for k in 0..m {
                    let (x, y) = naive_bfly2(a0[k], b0[k], tw[k]);
                    assert!(
                        (a[k].re - x.re).abs() < 1e-5
                            && (a[k].im - x.im).abs() < 1e-5
                            && (b[k].re - y.re).abs() < 1e-5
                            && (b[k].im - y.im).abs() < 1e-5,
                        "m={m} k={k} level={level:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn cols_match_rows_bitwise_at_every_level() {
        // The bit-compatibility contract: broadcast (cols) and per-element
        // (rows) kernels produce identical bits at the same ISA level.
        for (m, b) in [(3usize, 2usize), (4, 2), (5, 4), (8, 4), (1, 4), (2, 3)] {
            let tw = twiddles(m);
            let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m * b, s)).collect();
            for_each_isa(|level| {
                // cols: interleaved layout [k*b + lane].
                let mut c: Vec<Vec<Complex32>> = blocks.clone();
                {
                    let [c0, c1, c2, c3] = &mut c[..] else { unreachable!() };
                    bfly4_cols(c0, c1, c2, c3, &tw, &tw, &tw, b, true);
                }
                // rows: transform each lane separately via length-m rows.
                let mut r = blocks.clone();
                for lane in 0..b {
                    let mut lanes: Vec<Vec<Complex32>> =
                        r.iter().map(|blk| (0..m).map(|k| blk[k * b + lane]).collect()).collect();
                    {
                        let [l0, l1, l2, l3] = &mut lanes[..] else { unreachable!() };
                        bfly4_rows(l0, l1, l2, l3, &tw, &tw, &tw, true);
                    }
                    for (blk, lv) in r.iter_mut().zip(&lanes) {
                        for k in 0..m {
                            blk[k * b + lane] = lv[k];
                        }
                    }
                }
                for (cq, rq) in c.iter().zip(&r) {
                    for (x, y) in cq.iter().zip(rq) {
                        assert!(
                            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                            "cols/rows bit mismatch m={m} b={b} level={level:?}: {x:?} vs {y:?}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn bfly4_rows_matches_scalar_reference() {
        for m in [1usize, 2, 4, 6, 9, 16] {
            let tw1 = twiddles(m);
            let tw2: Vec<Complex32> = tw1.iter().map(|w| *w * *w).collect();
            let tw3: Vec<Complex32> = tw1.iter().map(|w| *w * *w * *w).collect();
            for forward in [true, false] {
                let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m, s + 7)).collect();
                // Scalar reference at the Scalar level.
                let mut want = blocks.clone();
                {
                    let _guard = test_isa_guard();
                    set_isa_override(IsaLevel::Scalar).unwrap();
                    let [w0, w1, w2, w3] = &mut want[..] else { unreachable!() };
                    bfly4_rows(w0, w1, w2, w3, &tw1, &tw2, &tw3, forward);
                    set_isa_override(detect_isa()).unwrap();
                }
                for_each_isa(|level| {
                    let mut got = blocks.clone();
                    let [g0, g1, g2, g3] = &mut got[..] else { unreachable!() };
                    bfly4_rows(g0, g1, g2, g3, &tw1, &tw2, &tw3, forward);
                    for (gq, wq) in got.iter().zip(&want) {
                        for (g, w) in gq.iter().zip(wq) {
                            assert!(
                                (g.re - w.re).abs() < 1e-5 && (g.im - w.im).abs() < 1e-5,
                                "m={m} fwd={forward} level={level:?}: {g:?} vs {w:?}"
                            );
                        }
                    }
                });
            }
        }
    }

    /// The no-twiddle butterflies equal the twiddled kernels at unit
    /// twiddles, bitwise, at every level — multiplying by `1 + 0i` is exact
    /// in every arm's arithmetic shape (including FMA), so this pins that
    /// hoisting the twiddle out of the butterfly loses nothing.
    #[test]
    fn nt_butterflies_match_unit_twiddle_kernels_bitwise() {
        for m in [1usize, 2, 3, 4, 5, 8, 13] {
            let ones = vec![Complex32::ONE; m];
            let blocks: Vec<Vec<Complex32>> = (0..4).map(|s| demo(m, s + 11)).collect();
            for forward in [true, false] {
                for_each_isa(|level| {
                    let mut nt = blocks.clone();
                    {
                        let [n0, n1, n2, n3] = &mut nt[..] else { unreachable!() };
                        bfly4_nt(n0, n1, n2, n3, forward);
                    }
                    let mut tw = blocks.clone();
                    {
                        let [t0, t1, t2, t3] = &mut tw[..] else { unreachable!() };
                        bfly4_rows(t0, t1, t2, t3, &ones, &ones, &ones, forward);
                    }
                    for (nq, tq) in nt.iter().zip(&tw) {
                        for (x, y) in nq.iter().zip(tq) {
                            assert!(
                                x.re.to_bits() == y.re.to_bits()
                                    && x.im.to_bits() == y.im.to_bits(),
                                "bfly4 m={m} fwd={forward} level={level:?}: {x:?} vs {y:?}"
                            );
                        }
                    }
                    let mut nt2 = (blocks[0].clone(), blocks[1].clone());
                    bfly2_nt(&mut nt2.0, &mut nt2.1);
                    let mut tw2 = (blocks[0].clone(), blocks[1].clone());
                    bfly2_rows(&mut tw2.0, &mut tw2.1, &ones);
                    assert_eq!(nt2, tw2, "bfly2 m={m} level={level:?}");
                });
            }
        }
    }

    fn odd_rows(r: usize, d: &mut [Complex32], step: usize, tw: &[Complex32], m: usize, fwd: bool) {
        match r {
            3 => bfly_odd_rows::<3>(d, step, tw, m, m, fwd),
            5 => bfly_odd_rows::<5>(d, step, tw, m, m, fwd),
            7 => bfly_odd_rows::<7>(d, step, tw, m, m, fwd),
            _ => unreachable!(),
        }
    }

    fn odd_cols(
        r: usize,
        d: &mut [Complex32],
        step: usize,
        tw: &[Complex32],
        m: usize,
        b: usize,
        fwd: bool,
    ) {
        match r {
            3 => bfly_odd_cols::<3>(d, step, tw, m, m, b, fwd),
            5 => bfly_odd_cols::<5>(d, step, tw, m, m, b, fwd),
            7 => bfly_odd_cols::<7>(d, step, tw, m, m, b, fwd),
            _ => unreachable!(),
        }
    }

    fn odd_reference(t: &mut [Complex32], sign: f32) {
        match t.len() {
            3 => bfly_odd::<3>(t.try_into().unwrap(), sign),
            5 => bfly_odd::<5>(t.try_into().unwrap(), sign),
            7 => bfly_odd::<7>(t.try_into().unwrap(), sign),
            _ => unreachable!(),
        }
    }

    /// The radix-3/5/7 kernels: within 1e-5 of an f64 oracle at every
    /// level; cols == rows bitwise at every level; the Scalar and SSE2 arms
    /// equal the plain scalar reference (twiddle multiply, then
    /// [`bfly_odd`]) bitwise. Sub-rows sit `step > m·b` apart so the gaps
    /// must stay untouched.
    #[test]
    fn odd_kernels_match_oracle_reference_and_each_other() {
        for r in [3usize, 5, 7] {
            for (m, b) in [(1usize, 1usize), (3, 2), (4, 4), (5, 3), (9, 4), (13, 5), (8, 1)] {
                let tw: Vec<Complex32> = (1..r)
                    .flat_map(|q| {
                        (0..m).map(move |k| {
                            let th = -core::f64::consts::TAU * (q * k) as f64 / (r * m) as f64;
                            Complex64::cis(th).to_f32()
                        })
                    })
                    .collect();
                let step = m * b + 3;
                let d0 = demo((r - 1) * step + m * b, r as u32);
                for forward in [true, false] {
                    let sign = if forward { -1.0f32 } else { 1.0 };
                    // Plain scalar reference and f64 oracle per (k, lane).
                    let mut reference = d0.clone();
                    let mut oracle = vec![Complex64::ZERO; d0.len()];
                    for k in 0..m {
                        for i in k * b..(k + 1) * b {
                            let mut t: Vec<Complex32> = (0..r)
                                .map(|q| {
                                    let x = d0[q * step + i];
                                    if q == 0 {
                                        x
                                    } else {
                                        x * tw[(q - 1) * m + k]
                                    }
                                })
                                .collect();
                            for k2 in 0..r {
                                oracle[k2 * step + i] = (0..r)
                                    .map(|q| {
                                        let w = if q == 0 {
                                            Complex64::ONE
                                        } else {
                                            tw[(q - 1) * m + k].to_f64()
                                        };
                                        let th = f64::from(sign)
                                            * core::f64::consts::TAU
                                            * (q * k2) as f64
                                            / r as f64;
                                        d0[q * step + i].to_f64() * w * Complex64::cis(th)
                                    })
                                    .sum();
                            }
                            odd_reference(&mut t, sign);
                            for (q, v) in t.iter().enumerate() {
                                reference[q * step + i] = *v;
                            }
                        }
                    }
                    for_each_isa(|level| {
                        let mut cols = d0.clone();
                        odd_cols(r, &mut cols, step, &tw, m, b, forward);
                        // Rows: each lane on its own, sub-rows m apart.
                        let mut rows = d0.clone();
                        for lane in 0..b {
                            let mut line: Vec<Complex32> = (0..r)
                                .flat_map(|q| (0..m).map(move |k| (q, k)))
                                .map(|(q, k)| d0[q * step + k * b + lane])
                                .collect();
                            odd_rows(r, &mut line, m, &tw, m, forward);
                            for q in 0..r {
                                for k in 0..m {
                                    rows[q * step + k * b + lane] = line[q * m + k];
                                }
                            }
                        }
                        let ctx = format!("r={r} m={m} b={b} fwd={forward} {level:?}");
                        for (i, ((c, w), o)) in cols.iter().zip(&rows).zip(&oracle).enumerate() {
                            assert!(
                                c.re.to_bits() == w.re.to_bits()
                                    && c.im.to_bits() == w.im.to_bits(),
                                "{ctx} i={i}: cols {c:?} vs rows {w:?}"
                            );
                            if i % step >= m * b {
                                assert_eq!(*c, d0[i], "{ctx} i={i}: gap written");
                            } else {
                                assert!(
                                    (c.to_f64() - *o).abs() < 1e-5,
                                    "{ctx} i={i}: {c:?} vs {o:?}"
                                );
                            }
                        }
                        if matches!(level, IsaLevel::Scalar | IsaLevel::Sse2) {
                            let bits = |v: &[Complex32]| -> Vec<(u32, u32)> {
                                v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                            };
                            assert_eq!(bits(&cols), bits(&reference), "{ctx}: not the reference");
                        }
                    });
                }
            }
        }
    }

    /// The compile-time constants are `cos/sin(2πi/R)` correctly rounded.
    #[test]
    fn odd_root_constants_are_correctly_rounded() {
        fn check_r<const R: usize>() {
            let (cos, sin) = OddRoots::<R>::COS_SIN;
            for i in 1..=R / 2 {
                let th = core::f64::consts::TAU * i as f64 / R as f64;
                assert_eq!(cos[i - 1], th.cos() as f32, "cos R={R} i={i}");
                assert_eq!(sin[i - 1], th.sin() as f32, "sin R={R} i={i}");
            }
        }
        check_r::<3>();
        check_r::<5>();
        check_r::<7>();
        check_r::<11>();
        check_r::<13>();
    }

    #[test]
    #[should_panic(expected = "odd-radix row geometry mismatch")]
    fn odd_rows_reject_overlapping_rows() {
        let mut d = vec![Complex32::ZERO; 12];
        bfly_odd_rows::<3>(&mut d, 3, &twiddles(8), 4, 4, true);
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn bfly2_rows_rejects_mismatched_rows() {
        let mut a = vec![Complex32::ZERO; 3];
        let mut b = vec![Complex32::ZERO; 4];
        bfly2_rows(&mut a, &mut b, &twiddles(3));
    }
}
