//! Dispatched complex-row kernels — the Part 2 convolution primitives.
//!
//! Each function consults the active [`IsaLevel`] once and
//! forwards to the matching implementation. Rows in the NUFFT convolution are
//! short (`2W` or `2W+1` complex values, i.e. 4–17), so dispatch overhead is
//! kept to a single relaxed atomic load and a predictable branch.
//!
//! The adjoint scatters row by row. The 2D/3D forward gather does not: it
//! goes through the whole-sample kernels of [`crate::tile`], and
//! [`gather_row`] serves the 1D forward path.

use crate::dispatch::{active_isa, IsaLevel};
use crate::{avx, scalar, sse};
use nufft_math::Complex32;

/// `dst[i] += val * w[i]` — adjoint-convolution inner row.
///
/// # Panics
/// Panics if `dst` and `w` have different lengths.
#[inline]
pub fn scatter_row(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    assert_eq!(dst.len(), w.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx::scatter_row(dst, w, val) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse::scatter_row(dst, w, val) },
        IsaLevel::StrictScalar => scalar::scatter_row_strict(dst, w, val),
        _ => scalar::scatter_row(dst, w, val),
    }
}

/// Two-row scatter with a shared weight row (small-`W` SIMD-across-`y`).
///
/// # Panics
/// Panics if either destination row length differs from `w.len()`.
#[inline]
pub fn scatter_row2(
    dst0: &mut [Complex32],
    val0: Complex32,
    dst1: &mut [Complex32],
    val1: Complex32,
    w: &[f32],
) {
    assert_eq!(dst0.len(), w.len(), "row 0 length mismatch");
    assert_eq!(dst1.len(), w.len(), "row 1 length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx::scatter_row2(dst0, val0, dst1, val1, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse::scatter_row2(dst0, val0, dst1, val1, w) },
        IsaLevel::StrictScalar => {
            scalar::scatter_row_strict(dst0, w, val0);
            scalar::scatter_row_strict(dst1, w, val1);
        }
        _ => scalar::scatter_row2(dst0, val0, dst1, val1, w),
    }
}

/// `Σ_i src[i] * w[i]` — forward-convolution inner row.
///
/// # Panics
/// Panics if `src` and `w` have different lengths.
#[inline]
pub fn gather_row(src: &[Complex32], w: &[f32]) -> Complex32 {
    assert_eq!(src.len(), w.len(), "row length mismatch");
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports.
        IsaLevel::Avx2Fma => unsafe { avx::gather_row(src, w) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse::gather_row(src, w) },
        IsaLevel::StrictScalar => scalar::gather_row_strict(src, w),
        _ => scalar::gather_row(src, w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override};

    fn demo_row(n: usize) -> (Vec<Complex32>, Vec<f32>) {
        let grid: Vec<Complex32> =
            (0..n).map(|i| Complex32::new(i as f32 * 0.5 - 1.0, 1.0 - i as f32 * 0.25)).collect();
        let w: Vec<f32> = (0..n).map(|i| 0.1 + 0.05 * i as f32).collect();
        (grid, w)
    }

    /// Runs `f` under every ISA level the host supports, restoring detection
    /// afterwards. Holds the crate-wide override lock for the duration.
    fn for_each_isa(mut f: impl FnMut(IsaLevel)) {
        let _guard = crate::dispatch::test_isa_guard();
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
    fn all_isas_agree_on_scatter() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            let (grid0, w) = demo_row(n);
            let val = Complex32::new(1.25, -0.75);
            let mut reference = grid0.clone();
            scalar::scatter_row(&mut reference, &w, val);
            for_each_isa(|level| {
                let mut g = grid0.clone();
                scatter_row(&mut g, &w, val);
                for (a, b) in g.iter().zip(&reference) {
                    assert!(
                        (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5,
                        "scatter mismatch at n={n} level={level:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn all_isas_agree_on_gather() {
        for n in [0usize, 1, 2, 3, 4, 5, 8, 11, 16, 17] {
            let (grid, w) = demo_row(n);
            let reference = scalar::gather_row(&grid, &w);
            for_each_isa(|level| {
                let got = gather_row(&grid, &w);
                assert!(
                    (got.re - reference.re).abs() < 1e-4 && (got.im - reference.im).abs() < 1e-4,
                    "gather mismatch at n={n} level={level:?}: {got:?} vs {reference:?}"
                );
            });
        }
    }

    #[test]
    fn all_isas_agree_on_scatter_row2() {
        for n in [0usize, 2, 4, 5, 9, 16] {
            let (g0, w) = demo_row(n);
            let g1: Vec<Complex32> = g0.iter().map(|z| z.conj()).collect();
            let (v0, v1) = (Complex32::new(0.5, 2.0), Complex32::new(-1.0, 0.25));
            let mut r0 = g0.clone();
            let mut r1 = g1.clone();
            scalar::scatter_row2(&mut r0, v0, &mut r1, v1, &w);
            for_each_isa(|level| {
                let mut a0 = g0.clone();
                let mut a1 = g1.clone();
                scatter_row2(&mut a0, v0, &mut a1, v1, &w);
                for (a, b) in a0.iter().zip(&r0).chain(a1.iter().zip(&r1)) {
                    assert!(
                        (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5,
                        "scatter2 mismatch n={n} level={level:?}"
                    );
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scatter_rejects_mismatched_rows() {
        let mut dst = vec![Complex32::ZERO; 3];
        scatter_row(&mut dst, &[1.0, 2.0], Complex32::ONE);
    }
}
