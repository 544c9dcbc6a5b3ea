//! AVX2+FMA implementations: 256-bit vectors, four interleaved complex `f32`
//! values per register, with fused multiply-add. This is the "wider SIMD on
//! future architectures" configuration the paper projects (§VII).

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)]

use crate::tile::Tile;
use core::arch::x86_64::*;
use nufft_math::Complex32;

/// Expands four weights `[w0,w1,w2,w3]` to `[w0,w0,w1,w1,w2,w2,w3,w3]`.
#[inline(always)]
unsafe fn dup_weights4(wp: *const f32) -> __m256 {
    let w4 = _mm_loadu_ps(wp);
    let both = _mm256_insertf128_ps(_mm256_castps128_ps256(w4), w4, 1);
    let idx = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
    _mm256_permutevar8x32_ps(both, idx)
}

/// Broadcasts a complex value to `[re,im,re,im,re,im,re,im]`.
#[inline(always)]
unsafe fn broadcast_c32(val: Complex32) -> __m256 {
    _mm256_setr_ps(val.re, val.im, val.re, val.im, val.re, val.im, val.re, val.im)
}

/// `dst[i] += val * w[i]`, 4 complex values per iteration with FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA (checked by the dispatcher).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn scatter_row(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    debug_assert_eq!(dst.len(), w.len());
    let n = dst.len();
    let dp = dst.as_mut_ptr() as *mut f32;
    let wp = w.as_ptr();
    let vv = broadcast_c32(val);
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let d = _mm256_loadu_ps(dp.add(2 * i));
        _mm256_storeu_ps(dp.add(2 * i), _mm256_fmadd_ps(ww, vv, d));
        i += 4;
    }
    while i < n {
        let wi = *wp.add(i);
        dst.get_unchecked_mut(i).re += val.re * wi;
        dst.get_unchecked_mut(i).im += val.im * wi;
        i += 1;
    }
}

/// Two-row scatter sharing one weight row (small-`W` SIMD-across-`y`,
/// §III-C). Processes both rows in one pass so short rows still keep the
/// vector units busy.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn scatter_row2(
    dst0: &mut [Complex32],
    val0: Complex32,
    dst1: &mut [Complex32],
    val1: Complex32,
    w: &[f32],
) {
    debug_assert_eq!(dst0.len(), w.len());
    debug_assert_eq!(dst1.len(), w.len());
    let n = w.len();
    let d0 = dst0.as_mut_ptr() as *mut f32;
    let d1 = dst1.as_mut_ptr() as *mut f32;
    let wp = w.as_ptr();
    let v0 = broadcast_c32(val0);
    let v1 = broadcast_c32(val1);
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let a = _mm256_loadu_ps(d0.add(2 * i));
        let b = _mm256_loadu_ps(d1.add(2 * i));
        _mm256_storeu_ps(d0.add(2 * i), _mm256_fmadd_ps(ww, v0, a));
        _mm256_storeu_ps(d1.add(2 * i), _mm256_fmadd_ps(ww, v1, b));
        i += 4;
    }
    while i < n {
        let wi = *wp.add(i);
        dst0.get_unchecked_mut(i).re += val0.re * wi;
        dst0.get_unchecked_mut(i).im += val0.im * wi;
        dst1.get_unchecked_mut(i).re += val1.re * wi;
        dst1.get_unchecked_mut(i).im += val1.im * wi;
        i += 1;
    }
}

/// `Σ_i src[i] * w[i]`, 4 complex values per iteration with FMA.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_row(src: &[Complex32], w: &[f32]) -> Complex32 {
    debug_assert_eq!(src.len(), w.len());
    let n = src.len();
    let sp = src.as_ptr() as *const f32;
    let wp = w.as_ptr();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 4 <= n {
        let ww = dup_weights4(wp.add(i));
        let s = _mm256_loadu_ps(sp.add(2 * i));
        acc = _mm256_fmadd_ps(ww, s, acc);
        i += 4;
    }
    let mut out = fold4(acc);
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
/// four-tap vectors, then — when the segment length is not a multiple of
/// four — a zero-padded tail vector whose source taps are read through
/// `mask`, so a tail never touches memory past its row.
struct SegWeights {
    v: [__m256; 5],
    q: usize,
    tail: bool,
    mask: __m256i,
}

/// Expands a segment's weights once per sample. `w.len() ≤ 17`.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[inline(always)]
unsafe fn seg_weights(w: &[f32]) -> SegWeights {
    let q = w.len() / 4;
    let t = w.len() % 4;
    let mut v = [_mm256_setzero_ps(); 5];
    for (k, slot) in v.iter_mut().enumerate().take(q) {
        *slot = dup_weights4(w.as_ptr().add(4 * k));
    }
    let mut pad = [0.0f32; 4];
    pad[..t].copy_from_slice(&w[4 * q..]);
    v[q] = dup_weights4(pad.as_ptr());
    // f32 lane j is live when j < 2t (t complex taps).
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(2 * t as i32), lanes);
    SegWeights { v, q, tail: t > 0, mask }
}

/// `Σ_i row[i]·w[i]` for one row segment starting at `p`, left in vector
/// form (four complex partial sums).
///
/// # Safety
/// The CPU must support AVX2 and FMA, and the segment's taps from `p` on
/// must be readable.
#[inline(always)]
unsafe fn seg_row<const Q: usize>(p: *const f32, sw: &SegWeights) -> __m256 {
    if Q == 0 {
        return _mm256_mul_ps(sw.v[0], _mm256_maskload_ps(p, sw.mask));
    }
    let mut s = _mm256_mul_ps(sw.v[0], _mm256_loadu_ps(p));
    for k in 1..Q {
        s = _mm256_fmadd_ps(sw.v[k], _mm256_loadu_ps(p.add(8 * k)), s);
    }
    if sw.tail {
        s = _mm256_fmadd_ps(sw.v[Q], _mm256_maskload_ps(p.add(8 * Q), sw.mask), s);
    }
    s
}

/// One tile segment over every row and `C` channel grids: row `r` reads
/// from element `row_starts[r] + delta` (wrapping `usize` arithmetic, so
/// a negative shift is allowed) and lands in accumulator `r % 2`.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and every row's segment must lie in
/// every grid.
#[inline(always)]
unsafe fn seg_pass<const Q: usize, const C: usize>(
    grids: &[*const f32; C],
    row_starts: &[usize],
    row_w: &[f32],
    delta: usize,
    sw: &SegWeights,
    acc: &mut [[__m256; 2]; C],
) {
    let rows = row_starts.len();
    let at = |g: *const f32, r: usize| g.add(2 * row_starts.get_unchecked(r).wrapping_add(delta));
    let mut r = 0;
    while r + 2 <= rows {
        let f0 = _mm256_set1_ps(*row_w.get_unchecked(r));
        let f1 = _mm256_set1_ps(*row_w.get_unchecked(r + 1));
        for c in 0..C {
            let s0 = seg_row::<Q>(at(grids[c], r), sw);
            let s1 = seg_row::<Q>(at(grids[c], r + 1), sw);
            acc[c][0] = _mm256_fmadd_ps(f0, s0, acc[c][0]);
            acc[c][1] = _mm256_fmadd_ps(f1, s1, acc[c][1]);
        }
        r += 2;
    }
    if r < rows {
        let f0 = _mm256_set1_ps(*row_w.get_unchecked(r));
        for c in 0..C {
            let s0 = seg_row::<Q>(at(grids[c], r), sw);
            acc[c][0] = _mm256_fmadd_ps(f0, s0, acc[c][0]);
        }
    }
}

/// Runs [`seg_pass`] for the segment `w` with its tap count as a constant.
///
/// # Safety
/// As [`seg_pass`].
#[inline(always)]
unsafe fn seg_dispatch<const C: usize>(
    grids: &[*const f32; C],
    tile: &Tile<'_>,
    w: &[f32],
    delta: usize,
    acc: &mut [[__m256; 2]; C],
) {
    if w.is_empty() {
        return;
    }
    let sw = seg_weights(w);
    let (rs, rw) = (tile.row_starts, tile.row_w);
    match sw.q {
        0 => seg_pass::<0, C>(grids, rs, rw, delta, &sw, acc),
        1 => seg_pass::<1, C>(grids, rs, rw, delta, &sw, acc),
        2 => seg_pass::<2, C>(grids, rs, rw, delta, &sw, acc),
        3 => seg_pass::<3, C>(grids, rs, rw, delta, &sw, acc),
        _ => seg_pass::<4, C>(grids, rs, rw, delta, &sw, acc),
    }
}

/// The whole-sample gather over `C` channel grids: both segments of every
/// row feed two vector accumulators per channel, folded once at the end.
/// Each channel's operation sequence is independent of `C`.
///
/// # Safety
/// The CPU must support AVX2 and FMA, and every tap of `tile` must lie in
/// every grid.
#[inline(always)]
unsafe fn tile_channels<const C: usize>(grids: [*const f32; C], tile: &Tile<'_>) -> [Complex32; C] {
    debug_assert!(tile.w.len() <= crate::tile::TILE_MAX_TAPS);
    let mut acc = [[_mm256_setzero_ps(); 2]; C];
    let (head, tail) = tile.w.split_at(tile.split);
    seg_dispatch(&grids, tile, head, 0, &mut acc);
    seg_dispatch(&grids, tile, tail, tile.split.wrapping_sub(tile.period), &mut acc);
    let mut out = [Complex32::ZERO; C];
    for (o, [a0, a1]) in out.iter_mut().zip(acc) {
        *o = fold4(_mm256_add_ps(a0, a1));
    }
    out
}

/// Folds four complex lanes down to one.
#[inline(always)]
unsafe fn fold4(acc: __m256) -> Complex32 {
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps(acc, 1);
    let s4 = _mm_add_ps(lo, hi); // [r0+r2, i0+i2, r1+r3, i1+i3]
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    Complex32::new(_mm_cvtss_f32(s2), _mm_cvtss_f32(_mm_shuffle_ps(s2, s2, 0b01)))
}

/// Whole-sample gather (see [`crate::tile::gather_tile`]).
///
/// # Safety
/// The CPU must support AVX2 and FMA, and every tap of `tile` must lie in
/// `grid` (checked by the dispatcher).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_tile(grid: &[Complex32], tile: &Tile<'_>) -> Complex32 {
    let [out] = tile_channels([grid.as_ptr() as *const f32], tile);
    out
}

/// Channel-paired whole-sample gather: one weight expansion and one pass
/// over the row addresses feed both channels' accumulators, each seeing
/// exactly [`gather_tile`]'s operation sequence.
///
/// # Safety
/// As [`gather_tile`], for both grids.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn gather_tile2(
    ga: &[Complex32],
    gb: &[Complex32],
    tile: &Tile<'_>,
) -> (Complex32, Complex32) {
    let [a, b] = tile_channels([ga.as_ptr() as *const f32, gb.as_ptr() as *const f32], tile);
    (a, b)
}

/// `dst[i] += src[i]` over complex buffers, 8 floats per iteration.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn accumulate(dst: &mut [Complex32], src: &[Complex32]) {
    debug_assert_eq!(dst.len(), src.len());
    let n2 = dst.len() * 2;
    let dp = dst.as_mut_ptr() as *mut f32;
    let sp = src.as_ptr() as *const f32;
    let mut i = 0;
    while i + 8 <= n2 {
        let d = _mm256_loadu_ps(dp.add(i));
        let s = _mm256_loadu_ps(sp.add(i));
        _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, s));
        i += 8;
    }
    while i < n2 {
        *dp.add(i) += *sp.add(i);
        i += 1;
    }
}

/// `buf[i] *= s[i]` — pointwise real scaling of a complex buffer.
///
/// # Safety
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn scale_by_real(buf: &mut [Complex32], s: &[f32]) {
    debug_assert_eq!(buf.len(), s.len());
    let n = buf.len();
    let bp = buf.as_mut_ptr() as *mut f32;
    let sp = s.as_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let sv = dup_weights4(sp.add(i));
        let b = _mm256_loadu_ps(bp.add(2 * i));
        _mm256_storeu_ps(bp.add(2 * i), _mm256_mul_ps(b, sv));
        i += 4;
    }
    while i < n {
        let si = *sp.add(i);
        buf.get_unchecked_mut(i).re *= si;
        buf.get_unchecked_mut(i).im *= si;
        i += 1;
    }
}
