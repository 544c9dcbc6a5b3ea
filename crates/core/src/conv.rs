//! The convolution kernels (Figure 2 of the paper).
//!
//! Part 1 computes, per sample and dimension, the window of grid neighbors
//! `x1 = ⌈u−W⌉ … x2 = ⌊u+W⌋` and their kernel weights via LUT. Part 2 is the
//! separable convolution proper: the forward operator *gathers* weighted
//! grid values into the sample, the adjoint *scatters* the sample into the
//! grid. The innermost dimension is contiguous in memory, so Part 2 rows go
//! through the `nufft-simd` kernels (SIMD-within-a-sample, §III-C):
//! the adjoint row by row, the 2D/3D forward as one whole-sample tile call
//! per sample. Wrap-around rows are split into at most two contiguous
//! segments, and wrapped outer indices are stepped incrementally — no
//! division per row.
//!
//! Privatized tasks scatter into a local buffer in *unwrapped* coordinates
//! (every neighbor of a task's samples lies within its halo box, so no mod
//! arithmetic is needed there); the reduction adds the buffer back into the
//! global grid with wrapping.

use crate::kernel::InterpKernel;
use core::mem::MaybeUninit;
use nufft_math::Complex32;
use nufft_simd::{gather_row, gather_tile, gather_tile2, scatter_row, scatter_row2, Tile};

/// Maximum taps per dimension: `2W+1` with the paper's largest `W = 8`.
pub const MAX_TAPS: usize = 17;

// Every window's z-row must fit the whole-sample gather kernels.
const _: () = assert!(MAX_TAPS <= nufft_simd::TILE_MAX_TAPS);

/// One dimension's interpolation window for one sample (Part 1 output).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// First (unwrapped) neighbor index `x1 = ⌈u−W⌉`; may be negative or
    /// reach past the grid edge — wrapping is Part 2's job.
    pub start: i32,
    /// Number of taps `lx = x2 − x1 + 1` (`2W` or `2W+1`).
    pub len: usize,
    /// Kernel weights for each tap.
    pub w: [f32; MAX_TAPS],
}

impl Window {
    /// An empty window — staging storage for drivers that overwrite it
    /// per sample before use.
    pub const EMPTY: Window = Window { start: 0, len: 0, w: [0.0; MAX_TAPS] };

    /// Part 1 for one coordinate: neighbor range and kernel weights, via
    /// the kernel's row evaluator (LUT lerp or the fitted Horner fast
    /// path, whichever the family provides).
    ///
    /// `wrad` is the kernel radius `W`; `u` must lie in `[0, M)`. The
    /// bounds are computed in `f64`, where `u ± W` is exact — an `f32`
    /// `u + W` can round *up* across an integer and admit a tap just
    /// outside the true support, overflowing privatized halo buffers.
    #[inline]
    pub fn compute(u: f32, wrad: f32, kernel: &InterpKernel) -> Window {
        let x1 = (u as f64 - wrad as f64).ceil() as i32;
        let x2 = (u as f64 + wrad as f64).floor() as i32;
        let len = (x2 - x1 + 1) as usize;
        debug_assert!(len <= MAX_TAPS, "window of {len} taps exceeds MAX_TAPS");
        let mut w = [0.0f32; MAX_TAPS];
        kernel.eval_row(x1, len, u, &mut w);
        Window { start: x1, len, w }
    }

    /// Borrowed view of this window — the form the Part 2 kernels consume.
    #[inline]
    pub fn as_ref(&self) -> WinRef<'_> {
        WinRef { start: self.start, w: &self.w[..self.len] }
    }
}

/// A borrowed one-dimensional window: first neighbor index plus the live
/// weight row. This is the common currency of the Part 2 convolution
/// kernels — it views either a freshly computed [`Window`] (on-the-fly
/// Part 1) or a row of a plan-owned precomputed window table, so both
/// sources share one execution path.
#[derive(Clone, Copy, Debug)]
pub struct WinRef<'a> {
    /// First (unwrapped) neighbor index; wrapping is Part 2's job.
    pub start: i32,
    /// Kernel weights, one per tap (`w.len()` taps).
    pub w: &'a [f32],
}

impl WinRef<'_> {
    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True for a zero-tap window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }
}

/// Borrows a full D-dimensional window stack.
#[inline]
pub fn win_refs<const D: usize>(win: &[Window; D]) -> [WinRef<'_>; D] {
    core::array::from_fn(|d| win[d].as_ref())
}

/// `x mod m` for a window or halo start, by repeated addition rather than
/// division: starts lie within a few grid extents of `[0, m)`.
#[inline(always)]
fn wrap(x: i32, m: usize) -> usize {
    let m = m as i32;
    let mut x = x;
    while x < 0 {
        x += m;
    }
    while x >= m {
        x -= m;
    }
    x as usize
}

/// The wrapped successor of grid index `g` on an axis of extent `m`.
#[inline(always)]
fn step(g: usize, m: usize) -> usize {
    if g + 1 == m {
        0
    } else {
        g + 1
    }
}

/// Wrapped grid indices of `len` consecutive taps from `start`, each
/// multiplied by `stride` (the axis's element stride), into `out`.
#[inline(always)]
fn wrapped_offsets(start: i32, len: usize, m: usize, stride: usize, out: &mut [usize; MAX_TAPS]) {
    let mut g = wrap(start, m);
    for o in &mut out[..len] {
        *o = g * stride;
        g = step(g, m);
    }
}

/// Scatters `val` along one (possibly wrapping) grid row whose first tap
/// sits at wrapped offset `z0`: the innermost loop of the adjoint
/// convolution.
#[inline(always)]
fn scatter_wrapped_row(
    grid: &mut [Complex32],
    row_base: usize,
    m_last: usize,
    z0: usize,
    wz: WinRef<'_>,
    val: Complex32,
) {
    let n = wz.len();
    if z0 + n <= m_last {
        scatter_row(&mut grid[row_base + z0..row_base + z0 + n], wz.w, val);
    } else {
        let first = m_last - z0;
        scatter_row(&mut grid[row_base + z0..row_base + m_last], &wz.w[..first], val);
        scatter_row(&mut grid[row_base..row_base + n - first], &wz.w[first..], val);
    }
}

/// The 1D forward gather: one (possibly wrapping) row weighted by `w`.
#[inline(always)]
fn gather_wrapped_row(grid: &[Complex32], m: usize, w: WinRef<'_>) -> Complex32 {
    let n = w.len();
    let z0 = wrap(w.start, m);
    if z0 + n <= m {
        gather_row(&grid[z0..z0 + n], w.w)
    } else {
        let first = m - z0;
        let a = gather_row(&grid[z0..m], &w.w[..first]);
        let b = gather_row(&grid[..n - first], &w.w[first..]);
        a + b
    }
}

/// Adjoint (scatter) convolution of one sample onto the global grid
/// (Figure 2, Part 2b).
#[inline]
pub fn adjoint_scatter<const D: usize>(
    grid: &mut [Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
    val: Complex32,
) {
    let z0 = wrap(win[D - 1].start, m[D - 1]);
    match D {
        1 => scatter_wrapped_row(grid, 0, m[0], z0, win[0], val),
        2 => {
            let mut gx = wrap(win[0].start, m[0]);
            for &fx in win[0].w {
                scatter_wrapped_row(grid, gx * m[1], m[1], z0, win[1], val.scale(fx));
                gx = step(gx, m[0]);
            }
        }
        3 => {
            // Small-W fast path (§III-C "SIMD across several y iterations"):
            // when the z-row does not wrap, fuse pairs of y-rows through
            // scatter_row2 so one weight-expansion feeds two FMA rows.
            let lz = win[2].len();
            let z_contiguous = z0 + lz <= m[2];
            let mut gys = [0usize; MAX_TAPS];
            wrapped_offsets(win[1].start, win[1].len(), m[1], 1, &mut gys);
            let mut gx = wrap(win[0].start, m[0]);
            for &fx in win[0].w {
                let mut iy = 0;
                if z_contiguous {
                    while iy + 2 <= win[1].len() {
                        let f0 = val.scale(fx * win[1].w[iy]);
                        let f1 = val.scale(fx * win[1].w[iy + 1]);
                        let b0 = (gx * m[1] + gys[iy]) * m[2] + z0;
                        let b1 = (gx * m[1] + gys[iy + 1]) * m[2] + z0;
                        // SAFETY: the two y indices are adjacent wrapped
                        // indices on a grid of extent ≥ 2W+1 > 1, so they
                        // differ and the rows are disjoint subslices of
                        // `grid`.
                        let (r0, r1) = unsafe {
                            let base = grid.as_mut_ptr();
                            (
                                core::slice::from_raw_parts_mut(base.add(b0), lz),
                                core::slice::from_raw_parts_mut(base.add(b1), lz),
                            )
                        };
                        scatter_row2(r0, f0, r1, f1, win[2].w);
                        iy += 2;
                    }
                }
                while iy < win[1].len() {
                    let f = val.scale(fx * win[1].w[iy]);
                    let base = (gx * m[1] + gys[iy]) * m[2];
                    scatter_wrapped_row(grid, base, m[2], z0, win[2], f);
                    iy += 1;
                }
                gx = step(gx, m[0]);
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Most rows in one sample's 2D/3D tap box.
const MAX_ROWS: usize = MAX_TAPS * MAX_TAPS;

/// Builds one sample's 2D/3D tap box — each z-row's first tap and its
/// outer weight, the z-row wrap split — on the stack and hands it to `f`.
/// Row weights are `wx · wy` in 3D and `wx · 1 = wx` (exactly) in 2D, the
/// factors the row-wise gather scaled each row by.
#[inline(always)]
fn with_tile<const D: usize, R>(
    m: &[usize; D],
    win: &[WinRef<'_>; D],
    f: impl FnOnce(&Tile<'_>) -> R,
) -> R {
    let (mz, wz) = (m[D - 1], win[D - 1]);
    let z0 = wrap(wz.start, mz);
    let mut xs = [0usize; MAX_TAPS];
    let mut ys = [0usize; MAX_TAPS];
    let (wy, x_stride): (&[f32], usize) = if D == 3 { (win[1].w, m[1] * mz) } else { (&[1.0], mz) };
    wrapped_offsets(win[0].start, win[0].len(), m[0], x_stride, &mut xs);
    if D == 3 {
        wrapped_offsets(win[1].start, win[1].len(), m[1], mz, &mut ys);
    }
    // Only the live prefix is written: zeroing all MAX_ROWS entries would
    // cost a few kilobytes of stores per sample.
    let mut row_starts = [MaybeUninit::<usize>::uninit(); MAX_ROWS];
    let mut row_w = [MaybeUninit::<f32>::uninit(); MAX_ROWS];
    let mut r = 0;
    for (&x, &fx) in xs.iter().zip(win[0].w) {
        for (&y, &fy) in ys.iter().zip(wy) {
            row_starts[r].write(x + y + z0);
            row_w[r].write(fx * fy);
            r += 1;
        }
    }
    // SAFETY: entries `..r` of both arrays were initialized above, and
    // `MaybeUninit<T>` has the layout of `T`.
    let (row_starts, row_w) = unsafe {
        (
            &*(&row_starts[..r] as *const [MaybeUninit<usize>] as *const [usize]),
            &*(&row_w[..r] as *const [MaybeUninit<f32>] as *const [f32]),
        )
    };
    f(&Tile { row_starts, row_w, w: wz.w, split: wz.len().min(mz - z0), period: mz })
}

/// Forward (gather) convolution of one sample from the global grid
/// (Figure 2, Part 2a). 2D/3D samples are one whole-sample
/// [`gather_tile`] call.
#[inline]
pub fn forward_gather<const D: usize>(
    grid: &[Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
) -> Complex32 {
    match D {
        1 => gather_wrapped_row(grid, m[0], win[0]),
        2 | 3 => with_tile(m, win, |tile| gather_tile(grid, tile)),
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Channel-paired forward gather: one sample's window applied to two grids
/// at once, sharing the Part 1 lookup, the row addressing and the weight
/// expansion across channels (the multi-channel forward driver's inner
/// step).
///
/// Bitwise-equal per channel to two independent [`forward_gather`] calls:
/// [`gather_tile2`] guarantees it per tile at every ISA level.
#[inline]
pub fn forward_gather2<const D: usize>(
    ga: &[Complex32],
    gb: &[Complex32],
    m: &[usize; D],
    win: &[WinRef<'_>; D],
) -> (Complex32, Complex32) {
    match D {
        1 => (gather_wrapped_row(ga, m[0], win[0]), gather_wrapped_row(gb, m[0], win[0])),
        2 | 3 => with_tile(m, win, |tile| gather_tile2(ga, gb, tile)),
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Adjoint scatter into a privatized local buffer (no wrapping: the buffer
/// covers the task's halo box in unwrapped coordinates, §III-B4).
///
/// `origin` is the buffer's unwrapped starting coordinate per dimension and
/// `size` its extents; every window tap is guaranteed in range by
/// preprocessing.
#[inline]
pub fn adjoint_scatter_local<const D: usize>(
    buf: &mut [Complex32],
    origin: &[i32; D],
    size: &[usize; D],
    win: &[WinRef<'_>; D],
    val: Complex32,
) {
    match D {
        1 => {
            let l0 = (win[0].start - origin[0]) as usize;
            scatter_row(&mut buf[l0..l0 + win[0].len()], win[0].w, val);
        }
        2 => {
            let ly = (win[1].start - origin[1]) as usize;
            for ix in 0..win[0].len() {
                let lx = (win[0].start - origin[0]) as usize + ix;
                let f = val.scale(win[0].w[ix]);
                let base = lx * size[1] + ly;
                scatter_row(&mut buf[base..base + win[1].len()], win[1].w, f);
            }
        }
        3 => {
            let lz = (win[2].start - origin[2]) as usize;
            for ix in 0..win[0].len() {
                let lx = (win[0].start - origin[0]) as usize + ix;
                let fx = win[0].w[ix];
                for iy in 0..win[1].len() {
                    let ly = (win[1].start - origin[1]) as usize + iy;
                    let f = val.scale(fx * win[1].w[iy]);
                    let base = (lx * size[1] + ly) * size[2] + lz;
                    scatter_row(&mut buf[base..base + win[2].len()], win[2].w, f);
                }
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// Reduces a privatized buffer into the global grid with wrapping — the
/// decoupled reduction phase of §III-B4. Rows are added via the SIMD
/// accumulate kernel, split at the wrap point when needed.
pub fn reduce_local<const D: usize>(
    grid: &mut [Complex32],
    m: &[usize; D],
    buf: &[Complex32],
    origin: &[i32; D],
    size: &[usize; D],
) {
    let z0 = wrap(origin[D - 1], m[D - 1]);
    match D {
        1 => {
            add_wrapped_row(grid, 0, m[0], z0, &buf[..size[0]]);
        }
        2 => {
            let mut gx = wrap(origin[0], m[0]);
            for row in buf.chunks_exact(size[1]).take(size[0]) {
                add_wrapped_row(grid, gx * m[1], m[1], z0, row);
                gx = step(gx, m[0]);
            }
        }
        3 => {
            let gy0 = wrap(origin[1], m[1]);
            let mut gx = wrap(origin[0], m[0]);
            for slab in buf.chunks_exact(size[1] * size[2]).take(size[0]) {
                let mut gy = gy0;
                for row in slab.chunks_exact(size[2]) {
                    add_wrapped_row(grid, (gx * m[1] + gy) * m[2], m[2], z0, row);
                    gy = step(gy, m[1]);
                }
                gx = step(gx, m[0]);
            }
        }
        _ => unimplemented!("dimensions above 3 are not supported"),
    }
}

/// `grid[base + (z0 + i) mod m] += row[i]`, split into contiguous runs.
#[inline]
fn add_wrapped_row(
    grid: &mut [Complex32],
    row_base: usize,
    m_last: usize,
    z0: usize,
    row: &[Complex32],
) {
    debug_assert!(row.len() <= m_last, "privatized row wider than the grid");
    if z0 + row.len() <= m_last {
        nufft_simd::accumulate(&mut grid[row_base + z0..row_base + z0 + row.len()], row);
    } else {
        let first = m_last - z0;
        nufft_simd::accumulate(&mut grid[row_base + z0..row_base + m_last], &row[..first]);
        nufft_simd::accumulate(&mut grid[row_base..row_base + row.len() - first], &row[first..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::InterpKernel;

    fn kernel() -> InterpKernel {
        InterpKernel::new(2.0, 2.0)
    }

    #[test]
    fn window_taps_and_range() {
        let k = kernel();
        // Non-integer coordinate: 2W taps.
        let w = Window::compute(5.3, 2.0, &k);
        assert_eq!(w.start, 4); // ceil(3.3)
        assert_eq!(w.len, 4); // 4,5,6,7 (floor(7.3))
                              // Integer coordinate: 2W+1 taps.
        let w = Window::compute(5.0, 2.0, &k);
        assert_eq!(w.start, 3);
        assert_eq!(w.len, 5);
        // Weights are symmetric for the integer case.
        assert!((w.w[0] - w.w[4]).abs() < 1e-6);
        assert!((w.w[1] - w.w[3]).abs() < 1e-6);
        // Peak at the center tap.
        assert!(w.w[2] > w.w[1]);
    }

    #[test]
    fn window_taps_never_exceed_the_true_support() {
        // Regression: an f32 `u + W` can round up across an integer
        // (binade-crossing, e.g. u = 121 − 2⁻¹⁷, W = 8: f32(u+8) = 129.0)
        // and admit a tap outside [u−W, u+W], overflowing privatized halo
        // buffers. Bounds must be computed exactly.
        let k8 = InterpKernel::new(8.0, 2.0);
        let hazardous = 121.0f32 - 2.0f32.powi(-17);
        let w = Window::compute(hazardous, 8.0, &k8);
        let last = (w.start + w.len as i32 - 1) as f64;
        assert!(last - hazardous as f64 <= 8.0, "tap {last} outside support of u={hazardous}");
        // And fuzz the invariant across binades and widths.
        let k = kernel();
        for i in 0..20000 {
            let u = f32::from_bits((i as u32).wrapping_mul(2654435761) % 0x4380_0000);
            if !(0.0..1000.0).contains(&u) {
                continue;
            }
            for (wrad, kk) in [(2.0f32, &k), (8.0, &k8)] {
                let w = Window::compute(u, wrad, kk);
                let first = w.start as f64;
                let last = (w.start + w.len as i32 - 1) as f64;
                assert!(first >= u as f64 - wrad as f64 - 1e-12, "u={u} w={wrad}");
                assert!(last <= u as f64 + wrad as f64 + 1e-12, "u={u} w={wrad}");
            }
        }
    }

    #[test]
    fn window_near_zero_goes_negative() {
        let k = kernel();
        let w = Window::compute(0.5, 2.0, &k);
        assert_eq!(w.start, -1); // ceil(-1.5)
        assert_eq!(w.len, 4);
    }

    #[test]
    fn scatter_gather_1d_round_trip_weights() {
        let k = kernel();
        let m = [16usize];
        let mut grid = vec![Complex32::ZERO; 16];
        let win = [Window::compute(7.4, 2.0, &k)];
        adjoint_scatter(&mut grid, &m, &win_refs(&win), Complex32::ONE);
        // gather at the same point returns Σ w².
        let got = forward_gather(&grid, &m, &win_refs(&win));
        let want: f32 = win[0].w[..win[0].len].iter().map(|x| x * x).sum();
        assert!((got.re - want).abs() < 1e-6 && got.im.abs() < 1e-9);
    }

    #[test]
    fn scatter_wraps_across_edge_1d() {
        let k = kernel();
        let m = [16usize];
        let mut grid = vec![Complex32::ZERO; 16];
        let win = [Window::compute(0.5, 2.0, &k)];
        adjoint_scatter(&mut grid, &m, &win_refs(&win), Complex32::ONE);
        // Taps at −1,0,1,2 → grid 15,0,1,2.
        assert!(grid[15].re > 0.0);
        assert!(grid[0].re > 0.0);
        assert!(grid[2].re > 0.0);
        assert_eq!(grid[3], Complex32::ZERO);
        // Total mass conserved.
        let mass: f32 = grid.iter().map(|z| z.re).sum();
        let want: f32 = win[0].w[..win[0].len].iter().sum();
        assert!((mass - want).abs() < 1e-6);
    }

    #[test]
    fn scatter_3d_mass_conservation_with_wrap() {
        let k = kernel();
        let m = [8usize, 8, 8];
        let mut grid = vec![Complex32::ZERO; 512];
        // Coordinate near a corner: wraps in every dimension.
        let win = [
            Window::compute(0.3, 2.0, &k),
            Window::compute(7.6, 2.0, &k),
            Window::compute(0.1, 2.0, &k),
        ];
        let val = Complex32::new(2.0, -1.0);
        adjoint_scatter(&mut grid, &m, &win_refs(&win), val);
        let mass: Complex32 = grid.iter().copied().sum();
        let wsum: f32 = (0..3).map(|d| win[d].w[..win[d].len].iter().sum::<f32>()).product();
        assert!((mass.re - val.re * wsum).abs() < 1e-4);
        assert!((mass.im - val.im * wsum).abs() < 1e-4);
    }

    #[test]
    fn gather_is_exact_adjoint_of_scatter_3d() {
        // ⟨scatter(v), g⟩ == v·conj(gather(g)) ... with real weights:
        // gather(scatter(e)) over two different windows equals the windows'
        // overlap inner product either way round.
        let k = kernel();
        let m = [8usize, 8, 8];
        let win_a = [
            Window::compute(3.2, 2.0, &k),
            Window::compute(4.7, 2.0, &k),
            Window::compute(2.9, 2.0, &k),
        ];
        let win_b = [
            Window::compute(4.1, 2.0, &k),
            Window::compute(3.9, 2.0, &k),
            Window::compute(3.4, 2.0, &k),
        ];
        let mut ga = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut ga, &m, &win_refs(&win_a), Complex32::ONE);
        let mut gb = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut gb, &m, &win_refs(&win_b), Complex32::ONE);
        // ⟨A e, B e⟩ both ways.
        let ab = forward_gather(&ga, &m, &win_refs(&win_b)).re;
        let ba = forward_gather(&gb, &m, &win_refs(&win_a)).re;
        assert!((ab - ba).abs() < 1e-5, "{ab} vs {ba}");
    }

    #[test]
    fn local_scatter_plus_reduce_equals_direct_scatter() {
        let k = kernel();
        let m = [8usize, 8, 8];
        // Task halo box around a corner-adjacent cell: origin may be
        // negative.
        let origin = [-2i32, 3, -2];
        let size = [7usize, 5, 8];
        let mut buf = vec![Complex32::ZERO; size.iter().product()];
        let win = [
            Window::compute(1.4, 2.0, &k),
            Window::compute(5.5, 2.0, &k),
            Window::compute(0.2, 2.0, &k),
        ];
        let val = Complex32::new(1.0, 2.0);
        adjoint_scatter_local(&mut buf, &origin, &size, &win_refs(&win), val);

        let mut via_private = vec![Complex32::ZERO; 512];
        reduce_local(&mut via_private, &m, &buf, &origin, &size);

        let mut direct = vec![Complex32::ZERO; 512];
        adjoint_scatter(&mut direct, &m, &win_refs(&win), val);

        for (i, (a, b)) in via_private.iter().zip(&direct).enumerate() {
            assert!(
                (a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6,
                "mismatch at {i}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn gather_from_constant_grid_sums_weights() {
        let k = kernel();
        let m = [8usize, 8];
        let grid = vec![Complex32::new(3.0, 0.0); 64];
        let win = [Window::compute(3.3, 2.0, &k), Window::compute(6.8, 2.0, &k)];
        let got = forward_gather(&grid, &m, &win_refs(&win));
        let want: f32 = 3.0
            * win[0].w[..win[0].len].iter().sum::<f32>()
            * win[1].w[..win[1].len].iter().sum::<f32>();
        assert!((got.re - want).abs() < 1e-4);
    }
}
