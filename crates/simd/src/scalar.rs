//! Portable scalar reference implementations of every kernel.
//!
//! These define the semantics the vector paths must match (up to FP
//! reassociation/FMA rounding). They are also the fallback on non-x86 hosts
//! and the "scalar" arm of the Figure 13 SIMD-speedup experiment.

use crate::tile::Tile;
use nufft_math::{Complex32, Complex64};

/// `dst[i] += val * w[i]` — the adjoint-convolution inner row (Fig. 2, 2b).
#[inline]
pub fn scatter_row(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    debug_assert_eq!(dst.len(), w.len());
    for (d, &wi) in dst.iter_mut().zip(w) {
        d.re += val.re * wi;
        d.im += val.im * wi;
    }
}

/// Two-row scatter: `dst0[i] += val0*w[i]`, `dst1[i] += val1*w[i]`.
///
/// The paper's small-`W` trick (§III-C): when the innermost row is too short
/// to fill a vector, SIMD is applied across two `y` iterations. The scalar
/// form simply performs both rows.
#[inline]
pub fn scatter_row2(
    dst0: &mut [Complex32],
    val0: Complex32,
    dst1: &mut [Complex32],
    val1: Complex32,
    w: &[f32],
) {
    scatter_row(dst0, w, val0);
    scatter_row(dst1, w, val1);
}

/// `Σ_i src[i] * w[i]` — the forward-convolution inner row (Fig. 2, 2a).
#[inline]
pub fn gather_row(src: &[Complex32], w: &[f32]) -> Complex32 {
    debug_assert_eq!(src.len(), w.len());
    let mut acc = Complex32::ZERO;
    for (s, &wi) in src.iter().zip(w) {
        acc.re += s.re * wi;
        acc.im += s.im * wi;
    }
    acc
}

/// Whole-sample gather (see [`crate::tile::gather_tile`]) in the
/// historical row-by-row order: each row's contiguous segment is gathered,
/// its wrapped segment gathered and added, and the row scaled into the
/// running sample value.
#[inline]
pub fn gather_tile(grid: &[Complex32], tile: &Tile<'_>) -> Complex32 {
    tile_rows(grid, tile, gather_row)
}

/// Strict-scalar variant of [`gather_tile`] (see [`scatter_row_strict`]).
#[inline]
pub fn gather_tile_strict(grid: &[Complex32], tile: &Tile<'_>) -> Complex32 {
    tile_rows(grid, tile, gather_row_strict)
}

/// The row-by-row tile sum, with `row` as the per-segment gather.
#[inline(always)]
fn tile_rows(
    grid: &[Complex32],
    tile: &Tile<'_>,
    row: impl Fn(&[Complex32], &[f32]) -> Complex32,
) -> Complex32 {
    let (head, tail) = tile.w.split_at(tile.split);
    let mut acc = Complex32::ZERO;
    for (&s, &rw) in tile.row_starts.iter().zip(tile.row_w) {
        let mut v = row(&grid[s..s + head.len()], head);
        if !tail.is_empty() {
            let b = s + tile.split - tile.period;
            v += row(&grid[b..b + tail.len()], tail);
        }
        acc += v.scale(rw);
    }
    acc
}

/// `dst[i] += src[i]` — privatized-buffer reduction (§III-B4).
#[inline]
pub fn accumulate(dst: &mut [Complex32], src: &[Complex32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `buf[i] *= s[i]` — pointwise real scaling (roll-off correction).
#[inline]
pub fn scale_by_real(buf: &mut [Complex32], s: &[f32]) {
    debug_assert_eq!(buf.len(), s.len());
    for (b, &si) in buf.iter_mut().zip(s) {
        b.re *= si;
        b.im *= si;
    }
}

/// Strict-scalar variant of [`scatter_row`]: the per-element `black_box`
/// forces element-at-a-time memory traffic, defeating LLVM's SLP/loop
/// auto-vectorization. This reproduces the paper's true-scalar baseline
/// for Figure 13; never use it outside speedup experiments.
#[inline]
pub fn scatter_row_strict(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    debug_assert_eq!(dst.len(), w.len());
    for (d, &wi) in dst.iter_mut().zip(w) {
        let e = core::hint::black_box(d);
        e.re += val.re * wi;
        e.im += val.im * wi;
    }
}

/// Strict-scalar variant of [`gather_row`] (see [`scatter_row_strict`]).
#[inline]
pub fn gather_row_strict(src: &[Complex32], w: &[f32]) -> Complex32 {
    debug_assert_eq!(src.len(), w.len());
    let mut acc = Complex32::ZERO;
    for (s, &wi) in src.iter().zip(w) {
        let e = core::hint::black_box(s);
        acc.re += e.re * wi;
        acc.im += e.im * wi;
    }
    acc
}

/// Strict-scalar variant of [`accumulate`].
#[inline]
pub fn accumulate_strict(dst: &mut [Complex32], src: &[Complex32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        let e = core::hint::black_box(d);
        *e += s;
    }
}

/// Strict-scalar variant of [`scale_by_real`].
#[inline]
pub fn scale_by_real_strict(buf: &mut [Complex32], s: &[f32]) {
    debug_assert_eq!(buf.len(), s.len());
    for (b, &si) in buf.iter_mut().zip(s) {
        let e = core::hint::black_box(b);
        e.re *= si;
        e.im *= si;
    }
}

/// Conjugated dot product `Σ_i conj(a[i])·b[i]`, accumulated in `f64`.
///
/// Used by the CG solver in `nufft-mri`; f64 accumulation keeps the
/// iteration count independent of signal length.
#[inline]
pub fn dotc(a: &[Complex32], b: &[Complex32]) -> Complex64 {
    debug_assert_eq!(a.len(), b.len());
    let mut re = 0.0f64;
    let mut im = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let (xr, xi) = (x.re as f64, x.im as f64);
        let (yr, yi) = (y.re as f64, y.im as f64);
        re += xr * yr + xi * yi;
        im += xr * yi - xi * yr;
    }
    Complex64::new(re, im)
}

/// `Σ_i |a[i]|²` accumulated in `f64`.
#[inline]
pub fn sum_norm_sqr(a: &[Complex32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in a {
        acc += (x.re as f64) * (x.re as f64) + (x.im as f64) * (x.im as f64);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_row_accumulates() {
        let mut dst = vec![Complex32::new(1.0, 1.0); 3];
        scatter_row(&mut dst, &[1.0, 2.0, 0.5], Complex32::new(2.0, -2.0));
        assert_eq!(dst[0], Complex32::new(3.0, -1.0));
        assert_eq!(dst[1], Complex32::new(5.0, -3.0));
        assert_eq!(dst[2], Complex32::new(2.0, 0.0));
    }

    #[test]
    fn gather_row_weighted_sum() {
        let src = [Complex32::new(1.0, 0.0), Complex32::new(0.0, 1.0)];
        let out = gather_row(&src, &[3.0, 5.0]);
        assert_eq!(out, Complex32::new(3.0, 5.0));
    }

    #[test]
    fn gather_is_adjoint_of_scatter_on_basis() {
        // scatter then read back equals weight: e_i -> w_i relationship.
        let w = [0.25f32, 0.5, 0.75, 1.0];
        let mut grid = vec![Complex32::ZERO; 4];
        scatter_row(&mut grid, &w, Complex32::ONE);
        let g = gather_row(&grid, &w);
        let want: f32 = w.iter().map(|x| x * x).sum();
        assert!((g.re - want).abs() < 1e-6 && g.im == 0.0);
    }

    #[test]
    fn dotc_conjugates_first_argument() {
        let a = [Complex32::new(0.0, 1.0)];
        let b = [Complex32::new(0.0, 1.0)];
        // conj(i)·i = -i·i = 1.
        assert_eq!(dotc(&a, &b), Complex64::new(1.0, 0.0));
    }

    #[test]
    fn sum_norm_sqr_matches_dotc_self() {
        let a = [Complex32::new(3.0, 4.0), Complex32::new(-1.0, 2.0)];
        assert_eq!(sum_norm_sqr(&a), dotc(&a, &a).re);
        assert_eq!(dotc(&a, &a).im, 0.0);
    }

    #[test]
    fn scale_by_real_pointwise() {
        let mut buf = vec![Complex32::new(2.0, -4.0); 2];
        scale_by_real(&mut buf, &[0.5, 2.0]);
        assert_eq!(buf[0], Complex32::new(1.0, -2.0));
        assert_eq!(buf[1], Complex32::new(4.0, -8.0));
    }
}
