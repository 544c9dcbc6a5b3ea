//! SSE2 implementations: 128-bit vectors, two interleaved complex `f32`
//! values per register. This mirrors the paper's SSE4 configuration (it only
//! needs SSE2-level instructions for these kernels).

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)]

use crate::tile::Tile;
use core::arch::x86_64::*;
use nufft_math::Complex32;

/// `dst[i] += val * w[i]` over interleaved complex rows, 2 complex per step.
///
/// # Safety
/// Caller must ensure the CPU supports SSE2 (guaranteed on x86_64, but kept
/// `unsafe` for symmetry with the AVX path and because of raw pointer use).
#[target_feature(enable = "sse2")]
pub unsafe fn scatter_row(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    debug_assert_eq!(dst.len(), w.len());
    let n = dst.len();
    let dp = dst.as_mut_ptr() as *mut f32;
    let wp = w.as_ptr();
    // [re, im, re, im]
    let vv = _mm_set_ps(val.im, val.re, val.im, val.re);
    let mut i = 0;
    while i + 2 <= n {
        let wv = _mm_set_ps(*wp.add(i + 1), *wp.add(i + 1), *wp.add(i), *wp.add(i));
        let d = _mm_loadu_ps(dp.add(2 * i));
        let prod = _mm_mul_ps(wv, vv);
        _mm_storeu_ps(dp.add(2 * i), _mm_add_ps(d, prod));
        i += 2;
    }
    while i < n {
        let wi = *wp.add(i);
        dst.get_unchecked_mut(i).re += val.re * wi;
        dst.get_unchecked_mut(i).im += val.im * wi;
        i += 1;
    }
}

/// Two-row scatter with a shared weight row (small-`W` SIMD-across-`y`).
///
/// # Safety
/// See [`scatter_row`].
#[target_feature(enable = "sse2")]
pub unsafe fn scatter_row2(
    dst0: &mut [Complex32],
    val0: Complex32,
    dst1: &mut [Complex32],
    val1: Complex32,
    w: &[f32],
) {
    scatter_row(dst0, w, val0);
    scatter_row(dst1, w, val1);
}

/// `Σ_i src[i] * w[i]` over an interleaved complex row.
///
/// # Safety
/// See [`scatter_row`].
#[target_feature(enable = "sse2")]
pub unsafe fn gather_row(src: &[Complex32], w: &[f32]) -> Complex32 {
    debug_assert_eq!(src.len(), w.len());
    let n = src.len();
    let sp = src.as_ptr() as *const f32;
    let wp = w.as_ptr();
    let mut acc = _mm_setzero_ps();
    let mut i = 0;
    while i + 2 <= n {
        let wv = _mm_set_ps(*wp.add(i + 1), *wp.add(i + 1), *wp.add(i), *wp.add(i));
        let s = _mm_loadu_ps(sp.add(2 * i));
        acc = _mm_add_ps(acc, _mm_mul_ps(wv, s));
        i += 2;
    }
    // Horizontal fold of the two complex lanes: [r0,i0,r1,i1] -> [r0+r1, i0+i1].
    let hi = _mm_movehl_ps(acc, acc);
    let folded = _mm_add_ps(acc, hi);
    let mut out = Complex32::new(_mm_cvtss_f32(folded), {
        let im = _mm_shuffle_ps(folded, folded, 0b01);
        _mm_cvtss_f32(im)
    });
    while i < n {
        let wi = *wp.add(i);
        let s = *src.get_unchecked(i);
        out.re += s.re * wi;
        out.im += s.im * wi;
        i += 1;
    }
    out
}

/// Innermost weights of one tile segment in vector form: `q` full
/// two-tap vectors `[w0,w0,w1,w1]`, then — for an odd segment length — a
/// tail vector `[w,w,0,0]` whose source tap is read with a half-vector
/// load, so a tail never touches memory past its row.
struct SegWeights {
    v: [__m128; 9],
    q: usize,
    tail: bool,
}

/// Expands a segment's weights once per sample. `w.len() ≤ 17`.
///
/// # Safety
/// The CPU must support SSE2.
#[inline(always)]
unsafe fn seg_weights(w: &[f32]) -> SegWeights {
    let q = w.len() / 2;
    let mut v = [_mm_setzero_ps(); 9];
    for (k, slot) in v.iter_mut().enumerate().take(q) {
        *slot = _mm_set_ps(w[2 * k + 1], w[2 * k + 1], w[2 * k], w[2 * k]);
    }
    let tail = w.len() % 2 == 1;
    if tail {
        v[q] = _mm_set_ps(0.0, 0.0, w[2 * q], w[2 * q]);
    }
    SegWeights { v, q, tail }
}

/// Loads one complex value into the low half of a vector, zeroing the rest.
///
/// # Safety
/// `p` must point at a readable complex value.
#[inline(always)]
unsafe fn load_c32(p: *const f32) -> __m128 {
    _mm_castpd_ps(_mm_load_sd(p as *const f64))
}

/// `Σ_i row[i]·w[i]` for one row segment starting at `p`, left in vector
/// form (two complex partial sums).
///
/// # Safety
/// The segment's taps from `p` on must be readable.
#[inline(always)]
unsafe fn seg_row(p: *const f32, sw: &SegWeights) -> __m128 {
    let mut s = _mm_setzero_ps();
    for k in 0..sw.q {
        s = _mm_add_ps(s, _mm_mul_ps(sw.v[k], _mm_loadu_ps(p.add(4 * k))));
    }
    if sw.tail {
        s = _mm_add_ps(s, _mm_mul_ps(sw.v[sw.q], load_c32(p.add(4 * sw.q))));
    }
    s
}

/// One tile segment `w` over every row and `C` channel grids: row `r`
/// reads from element `row_starts[r] + delta` (wrapping `usize`
/// arithmetic) and lands in accumulator `r % 2`.
///
/// # Safety
/// The CPU must support SSE2, and every row's segment must lie in every
/// grid.
#[inline(always)]
unsafe fn seg_pass<const C: usize>(
    grids: &[*const f32; C],
    tile: &Tile<'_>,
    w: &[f32],
    delta: usize,
    acc: &mut [[__m128; 2]; C],
) {
    if w.is_empty() {
        return;
    }
    let sw = seg_weights(w);
    let (row_starts, row_w) = (tile.row_starts, tile.row_w);
    let rows = row_starts.len();
    let at = |g: *const f32, r: usize| g.add(2 * row_starts.get_unchecked(r).wrapping_add(delta));
    let mut r = 0;
    while r + 2 <= rows {
        let f0 = _mm_set1_ps(*row_w.get_unchecked(r));
        let f1 = _mm_set1_ps(*row_w.get_unchecked(r + 1));
        for c in 0..C {
            let s0 = seg_row(at(grids[c], r), &sw);
            let s1 = seg_row(at(grids[c], r + 1), &sw);
            acc[c][0] = _mm_add_ps(acc[c][0], _mm_mul_ps(f0, s0));
            acc[c][1] = _mm_add_ps(acc[c][1], _mm_mul_ps(f1, s1));
        }
        r += 2;
    }
    if r < rows {
        let f0 = _mm_set1_ps(*row_w.get_unchecked(r));
        for c in 0..C {
            let s0 = seg_row(at(grids[c], r), &sw);
            acc[c][0] = _mm_add_ps(acc[c][0], _mm_mul_ps(f0, s0));
        }
    }
}

/// The whole-sample gather over `C` channel grids: both segments of every
/// row feed two vector accumulators per channel, folded once at the end.
/// Each channel's operation sequence is independent of `C`.
///
/// # Safety
/// The CPU must support SSE2, and every tap of `tile` must lie in
/// every grid.
#[inline(always)]
unsafe fn tile_channels<const C: usize>(grids: [*const f32; C], tile: &Tile<'_>) -> [Complex32; C] {
    debug_assert!(tile.w.len() <= crate::tile::TILE_MAX_TAPS);
    let mut acc = [[_mm_setzero_ps(); 2]; C];
    let (head, tail) = tile.w.split_at(tile.split);
    seg_pass(&grids, tile, head, 0, &mut acc);
    seg_pass(&grids, tile, tail, tile.split.wrapping_sub(tile.period), &mut acc);
    let mut out = [Complex32::ZERO; C];
    for (o, [a0, a1]) in out.iter_mut().zip(acc) {
        let s = _mm_add_ps(a0, a1);
        let folded = _mm_add_ps(s, _mm_movehl_ps(s, s));
        *o = Complex32::new(
            _mm_cvtss_f32(folded),
            _mm_cvtss_f32(_mm_shuffle_ps(folded, folded, 0b01)),
        );
    }
    out
}

/// Whole-sample gather (see [`crate::tile::gather_tile`]).
///
/// # Safety
/// Every tap of `tile` must lie in `grid` (checked by the dispatcher).
#[target_feature(enable = "sse2")]
pub unsafe fn gather_tile(grid: &[Complex32], tile: &Tile<'_>) -> Complex32 {
    let [out] = tile_channels([grid.as_ptr() as *const f32], tile);
    out
}

/// Channel-paired whole-sample gather, each channel seeing exactly
/// [`gather_tile`]'s operation sequence.
///
/// # Safety
/// As [`gather_tile`], for both grids.
#[target_feature(enable = "sse2")]
pub unsafe fn gather_tile2(
    ga: &[Complex32],
    gb: &[Complex32],
    tile: &Tile<'_>,
) -> (Complex32, Complex32) {
    let [a, b] = tile_channels([ga.as_ptr() as *const f32, gb.as_ptr() as *const f32], tile);
    (a, b)
}

/// `dst[i] += src[i]` over complex buffers.
///
/// # Safety
/// See [`scatter_row`].
#[target_feature(enable = "sse2")]
pub unsafe fn accumulate(dst: &mut [Complex32], src: &[Complex32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n2 = dst.len() * 2;
    let dp = dst.as_mut_ptr() as *mut f32;
    let sp = src.as_ptr() as *const f32;
    let mut i = 0;
    while i + 4 <= n2 {
        let d = _mm_loadu_ps(dp.add(i));
        let s = _mm_loadu_ps(sp.add(i));
        _mm_storeu_ps(dp.add(i), _mm_add_ps(d, s));
        i += 4;
    }
    while i < n2 {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

/// `buf[i] *= s[i]` — pointwise real scaling of a complex buffer.
///
/// # Safety
/// See [`scatter_row`].
#[target_feature(enable = "sse2")]
pub unsafe fn scale_by_real(buf: &mut [Complex32], s: &[f32]) {
    debug_assert_eq!(buf.len(), s.len());
    let n = buf.len();
    let bp = buf.as_mut_ptr() as *mut f32;
    let sp = s.as_ptr();
    let mut i = 0;
    while i + 2 <= n {
        let sv = _mm_set_ps(*sp.add(i + 1), *sp.add(i + 1), *sp.add(i), *sp.add(i));
        let b = _mm_loadu_ps(bp.add(2 * i));
        _mm_storeu_ps(bp.add(2 * i), _mm_mul_ps(b, sv));
        i += 2;
    }
    while i < n {
        let si = *sp.add(i);
        buf.get_unchecked_mut(i).re *= si;
        buf.get_unchecked_mut(i).im *= si;
        i += 1;
    }
}
