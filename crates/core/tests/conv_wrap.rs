//! Part 2 convolution at the periodic grid edges, at every ISA level.
//!
//! Samples sit at the grid corners so that every dimension's window wraps
//! — below zero and past the last index — with both `2W` taps (fractional
//! coordinates) and `2W+1` taps (integer coordinates). The 2D/3D forward
//! gather runs as one whole-sample tile per sample, with the wrapped z-row
//! split inside the tile kernel; these tests pin it against an `f64`
//! direct sum, pin the channel pair bitwise to two single gathers, and
//! pin gather/scatter as exact transposes under wrapping. The privatized
//! adjoint's reduction wraps its halo box back onto the grid the same way.

use nufft_core::conv::{
    adjoint_scatter, adjoint_scatter_local, forward_gather, forward_gather2, reduce_local,
    win_refs, Window,
};
use nufft_core::kernel::InterpKernel;
use nufft_math::Complex32;
use nufft_simd::{detect_isa, set_isa_override, IsaLevel};
use nufft_testkit::Rng;
use std::sync::Mutex;

/// Serializes the tests: the ISA override is process-global.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` under every ISA level the host supports, restoring detection
/// afterwards.
fn for_each_isa(mut f: impl FnMut(IsaLevel)) {
    let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let detected = detect_isa();
    for level in [IsaLevel::StrictScalar, IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma] {
        if level <= detected {
            set_isa_override(level).unwrap();
            f(level);
        }
    }
    set_isa_override(detected).unwrap();
}

/// Coordinates near both edges of an axis of extent `m`: integer ones
/// (`2W+1` taps) and fractional ones (`2W` taps), every one of whose
/// windows wraps.
fn edge_coords(m: usize) -> [f32; 4] {
    [0.0, 0.35, m as f32 - 1.0, m as f32 - 0.4]
}

/// Every corner sample of a D-dimensional grid: the cartesian product of
/// each axis's edge coordinates.
fn corner_samples<const D: usize>(m: &[usize; D]) -> Vec<[f32; D]> {
    let mut out = vec![[0.0f32; D]];
    for d in 0..D {
        out = out
            .into_iter()
            .flat_map(|p| {
                edge_coords(m[d]).map(|u| {
                    let mut q = p;
                    q[d] = u;
                    q
                })
            })
            .collect();
    }
    out
}

/// Row-major linear index of a wrapped tap.
fn wrapped_index<const D: usize>(m: &[usize; D], win: &[Window; D], taps: &[usize; D]) -> usize {
    (0..D).fold(0, |acc, d| {
        let g = (win[d].start + taps[d] as i32).rem_euclid(m[d] as i32) as usize;
        acc * m[d] + g
    })
}

/// `Σ_taps Π_d w_d · grid[wrapped]` in `f64`, straight from the definition.
fn direct_gather<const D: usize>(
    grid: &[Complex32],
    m: &[usize; D],
    win: &[Window; D],
) -> (f64, f64) {
    let total: usize = win.iter().map(|w| w.len).product();
    let mut acc = (0.0f64, 0.0f64);
    for flat in 0..total {
        let mut taps = [0usize; D];
        let mut rest = flat;
        for d in (0..D).rev() {
            taps[d] = rest % win[d].len;
            rest /= win[d].len;
        }
        let weight: f64 = (0..D).map(|d| win[d].w[taps[d]] as f64).product();
        let z = grid[wrapped_index(m, win, &taps)];
        acc.0 += weight * z.re as f64;
        acc.1 += weight * z.im as f64;
    }
    acc
}

fn random_grid(len: usize, seed: u64) -> Vec<Complex32> {
    Rng::seed_from_u64(seed).gen_c32_vec(len, 1.0)
}

fn bits(z: Complex32) -> (u32, u32) {
    (z.re.to_bits(), z.im.to_bits())
}

/// Forward gather at every corner sample against the direct sum, and the
/// channel pair bitwise against two single gathers.
fn check_corners<const D: usize>(m: [usize; D], wrad: f64) {
    let kernel = InterpKernel::new(wrad, 2.0);
    let len: usize = m.iter().product();
    let ga = random_grid(len, 0xC0_4E55 + D as u64);
    let gb = random_grid(len, 0xC0_4E56 + D as u64);
    let samples = corner_samples(&m);
    let windows: Vec<[Window; D]> = samples
        .iter()
        .map(|u| core::array::from_fn(|d| Window::compute(u[d], wrad as f32, &kernel)))
        .collect();
    // The corner set must exercise both tap counts in every dimension.
    for d in 0..D {
        let lens: Vec<usize> = windows.iter().map(|w| w[d].len).collect();
        let taps = 2 * wrad as usize;
        assert!(lens.contains(&taps) && lens.contains(&(taps + 1)), "dim {d}: {lens:?}");
    }
    for_each_isa(|level| {
        for (u, win) in samples.iter().zip(&windows) {
            let ctx = format!("D={D} W={wrad} u={u:?} level={level:?}");
            let refs = win_refs(win);
            let got = forward_gather(&ga, &m, &refs);
            let (re, im) = direct_gather(&ga, &m, win);
            let tol = 1e-5 * (1.0 + re.abs() + im.abs());
            assert!((got.re as f64 - re).abs() <= tol, "{ctx}: re {} vs {re}", got.re);
            assert!((got.im as f64 - im).abs() <= tol, "{ctx}: im {} vs {im}", got.im);

            let b = forward_gather(&gb, &m, &refs);
            let (pa, pb) = forward_gather2(&ga, &gb, &m, &refs);
            assert_eq!(bits(pa), bits(got), "{ctx}: paired channel a");
            assert_eq!(bits(pb), bits(b), "{ctx}: paired channel b");
        }
    });
}

#[test]
fn forward_gather_2d_matches_direct_sum_at_wrapping_corners() {
    check_corners([16, 12], 2.0);
    check_corners([20, 17], 4.0);
}

#[test]
fn forward_gather_3d_matches_direct_sum_at_wrapping_corners() {
    check_corners([8, 10, 12], 2.0);
    check_corners([10, 9, 16], 4.0);
}

/// `⟨scatter(v), g⟩ = conj(v) · gather(g)` for real kernel weights: the
/// adjoint scatter and the forward gather are exact transposes, wrapping
/// included.
fn check_transpose<const D: usize>(m: [usize; D], wrad: f64) {
    let kernel = InterpKernel::new(wrad, 2.0);
    let len: usize = m.iter().product();
    let g = random_grid(len, 0x7A45 + D as u64);
    let mut rng = Rng::seed_from_u64(0x7A46 + D as u64);
    for_each_isa(|level| {
        for u in corner_samples(&m) {
            let win: [Window; D] =
                core::array::from_fn(|d| Window::compute(u[d], wrad as f32, &kernel));
            let refs = win_refs(&win);
            let v = rng.gen_c32(1.0);
            let mut s = vec![Complex32::ZERO; len];
            adjoint_scatter(&mut s, &m, &refs, v);
            let (mut lhs_re, mut lhs_im) = (0.0f64, 0.0f64);
            for (a, b) in s.iter().zip(&g) {
                // conj(a) · b
                lhs_re += a.re as f64 * b.re as f64 + a.im as f64 * b.im as f64;
                lhs_im += a.re as f64 * b.im as f64 - a.im as f64 * b.re as f64;
            }
            let fg = forward_gather(&g, &m, &refs);
            let (vr, vi, fr, fi) = (v.re as f64, v.im as f64, fg.re as f64, fg.im as f64);
            let (rhs_re, rhs_im) = (vr * fr + vi * fi, vr * fi - vi * fr);
            let tol = 1e-5 * (1.0 + rhs_re.abs() + rhs_im.abs());
            let ctx = format!("D={D} W={wrad} u={u:?} level={level:?}");
            assert!((lhs_re - rhs_re).abs() <= tol, "{ctx}: re {lhs_re} vs {rhs_re}");
            assert!((lhs_im - rhs_im).abs() <= tol, "{ctx}: im {lhs_im} vs {rhs_im}");
        }
    });
}

#[test]
fn gather_is_the_transpose_of_scatter_under_wrapping_2d() {
    check_transpose([16, 12], 2.0);
    check_transpose([20, 17], 4.0);
}

#[test]
fn gather_is_the_transpose_of_scatter_under_wrapping_3d() {
    check_transpose([8, 10, 12], 2.0);
    check_transpose([10, 9, 16], 4.0);
}

/// A corner sample scattered into a privatized halo box whose origin sits
/// below zero in every dimension, then reduced onto the grid, lands
/// exactly where the direct scatter puts it: the reduction wraps every
/// dimension, and each grid cell receives the same single rounding.
fn check_private_reduce<const D: usize>(m: [usize; D], wrad: f64) {
    let kernel = InterpKernel::new(wrad, 2.0);
    let len: usize = m.iter().product();
    // The box [−W, W] holds the taps of u = 0.35 in every dimension.
    let origin = [-(wrad as i32); D];
    let size = [2 * wrad as usize + 1; D];
    let win: [Window; D] = core::array::from_fn(|_| Window::compute(0.35, wrad as f32, &kernel));
    let refs = win_refs(&win);
    let v = Complex32::new(0.75, -1.25);
    for_each_isa(|level| {
        let mut buf = vec![Complex32::ZERO; size.iter().product()];
        adjoint_scatter_local(&mut buf, &origin, &size, &refs, v);
        let mut via_private = vec![Complex32::ZERO; len];
        reduce_local(&mut via_private, &m, &buf, &origin, &size);
        let mut direct = vec![Complex32::ZERO; len];
        adjoint_scatter(&mut direct, &m, &refs, v);
        for (i, (a, b)) in via_private.iter().zip(&direct).enumerate() {
            assert_eq!(bits(*a), bits(*b), "D={D} W={wrad} level={level:?}: cell {i}");
        }
    });
}

#[test]
fn privatized_reduce_wraps_every_dimension() {
    check_private_reduce([16, 12], 2.0);
    check_private_reduce([8, 10, 12], 2.0);
    check_private_reduce([10, 9, 16], 4.0);
}
