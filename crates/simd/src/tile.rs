//! Whole-sample gather kernels — the forward convolution's Part 2 for one
//! sample in one call.
//!
//! A sample's tap box in 2D/3D is a stack of innermost-dimension rows: row
//! `r` starts at grid index `row_starts[r]`, carries the outer-dimension
//! weight `row_w[r]`, and shares the innermost weights `w` with every other
//! row. The kernels here consult the active [`IsaLevel`] once per sample,
//! expand `w` into vector form once, keep the running sum in vector
//! accumulators across all rows, and fold horizontally once at the end —
//! the whole-box interpolation of FINUFFT's interpolator, i.e. the paper's
//! §III-C within-a-sample vectorization applied to the full box rather
//! than row by row.
//!
//! The innermost dimension is periodic. Rows whose taps run past the grid
//! edge are described by [`Tile::split`]/[`Tile::period`]: taps `split..`
//! of every row are read `period` elements earlier, so a wrapping box
//! stays one call.

use crate::dispatch::{active_isa, IsaLevel};
use crate::{avx, scalar, sse};
use nufft_math::Complex32;

/// Longest innermost row the tile kernels accept: `2W+1` taps at the
/// paper's largest `W = 8`.
pub const TILE_MAX_TAPS: usize = 17;

/// One sample's tap box as the whole-sample gather kernels read it.
///
/// Tap `i` of row `r` is `grid[row_starts[r] + i]` for `i < split` and
/// `grid[row_starts[r] + i - period]` for `i ≥ split`; the box's value is
/// `Σ_r row_w[r] · Σ_i grid[tap(r, i)] · w[i]`.
#[derive(Clone, Copy, Debug)]
pub struct Tile<'a> {
    /// Grid index of each row's first tap.
    pub row_starts: &'a [usize],
    /// Weight of each row (the product of the outer-dimension weights).
    pub row_w: &'a [f32],
    /// Innermost weights, shared by every row.
    pub w: &'a [f32],
    /// Number of leading taps read contiguously from `row_starts[r]`.
    pub split: usize,
    /// Backward distance of the taps past `split` (the innermost extent).
    pub period: usize,
}

impl Tile<'_> {
    /// Checks that every tap lies inside a grid of `len` elements — the
    /// bounds contract the vector kernels' raw loads rely on.
    #[inline]
    fn check(&self, len: usize) {
        assert_eq!(self.row_starts.len(), self.row_w.len(), "row count mismatch");
        assert!(self.w.len() <= TILE_MAX_TAPS, "tile rows longer than TILE_MAX_TAPS");
        assert!(self.split <= self.w.len(), "split past the row length");
        if self.row_starts.is_empty() {
            return;
        }
        let (lo, hi) =
            self.row_starts.iter().fold((usize::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        assert!(hi <= len && self.split <= len - hi, "tile row runs past the grid");
        if self.split < self.w.len() {
            let back = self.w.len() - self.split;
            assert!(lo + self.split >= self.period, "wrapped taps before the grid start");
            assert!(hi + self.split - self.period + back <= len, "wrapped taps past the grid");
        }
    }
}

/// `Σ_r row_w[r] · Σ_i grid[tap(r, i)] · w[i]` — one sample's forward
/// interpolation over its whole tap box (see [`Tile`]).
///
/// `StrictScalar` and `Scalar` sum row by row in the historical order
/// (per-row gather, wrapped segments added, then scaled into the sample);
/// the vector levels differ from that only by reassociation.
///
/// # Panics
/// Panics if a tap falls outside `grid`, the row arrays differ in length,
/// or `w` is longer than [`TILE_MAX_TAPS`].
#[inline]
pub fn gather_tile(grid: &[Complex32], tile: &Tile<'_>) -> Complex32 {
    tile.check(grid.len());
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports, and
        // `check` proved every tap in bounds.
        IsaLevel::Avx2Fma => unsafe { avx::gather_tile(grid, tile) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse::gather_tile(grid, tile) },
        IsaLevel::StrictScalar => scalar::gather_tile_strict(grid, tile),
        _ => scalar::gather_tile(grid, tile),
    }
}

/// [`gather_tile`] over two channel grids sharing one tap box: the weight
/// expansion and row addressing are shared, and each channel is
/// **bitwise-equal** to its own [`gather_tile`] call at every ISA level.
///
/// # Panics
/// Panics if the grids differ in length, or on any condition
/// [`gather_tile`] panics on.
#[inline]
pub fn gather_tile2(ga: &[Complex32], gb: &[Complex32], tile: &Tile<'_>) -> (Complex32, Complex32) {
    assert_eq!(ga.len(), gb.len(), "channel grid length mismatch");
    tile.check(ga.len());
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_isa() only reports levels the host supports, and
        // `check` proved every tap in bounds for both equal-length grids.
        IsaLevel::Avx2Fma => unsafe { avx::gather_tile2(ga, gb, tile) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        IsaLevel::Sse2 => unsafe { sse::gather_tile2(ga, gb, tile) },
        IsaLevel::StrictScalar => {
            (scalar::gather_tile_strict(ga, tile), scalar::gather_tile_strict(gb, tile))
        }
        _ => (scalar::gather_tile(ga, tile), scalar::gather_tile(gb, tile)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{detect_isa, set_isa_override};

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

    fn demo_grid(n: usize, phase: f32) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.37 + phase).sin(), (i as f32 * 0.11).cos()))
            .collect()
    }

    /// Values spread over six decades, so that any change in the order of
    /// the additions shows in the low bits.
    fn rough_grid(n: usize, seed: u64) -> Vec<Complex32> {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let mant = (x >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            mant * 10f32.powi(((x >> 20) % 7) as i32 - 3)
        };
        (0..n).map(|_| Complex32::new(next(), next())).collect()
    }

    fn bits(z: Complex32) -> (u32, u32) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn gather_tile2_is_bitwise_two_gather_tiles() {
        // The load-bearing contract: the channel pair must be *bitwise*
        // identical to two one-channel tiles at every ISA level, else the
        // batched forward would break batch == repeated single applies.
        let (period, nrows) = (24usize, 11usize);
        let ga = rough_grid(nrows * period, 1);
        let gb = rough_grid(nrows * period, 2);
        for n in 1..=17usize {
            let w: Vec<f32> = (0..n).map(|i| 0.1 + 0.05 * i as f32).collect();
            let rows: Vec<usize> =
                (0..nrows).map(|r| r * period + (r * 7) % (period - n + 1)).collect();
            let row_w: Vec<f32> = (0..nrows).map(|r| 0.5 - 0.125 * r as f32).collect();
            // Contiguous, and wrapping after every possible split point:
            // row r's first `split` taps end its period, the rest wrap.
            let wrapped: Vec<Vec<usize>> = (1..n)
                .map(|split| (0..nrows).map(|r| r * period + period - split).collect())
                .collect();
            let mut tiles =
                vec![Tile { row_starts: &rows, row_w: &row_w, w: &w, split: n, period: 0 }];
            for (starts, split) in wrapped.iter().zip(1..) {
                tiles.push(Tile { row_starts: starts, row_w: &row_w, w: &w, split, period });
            }
            for_each_isa(|level| {
                for tile in &tiles {
                    let a = gather_tile(&ga, tile);
                    let b = gather_tile(&gb, tile);
                    let (pa, pb) = gather_tile2(&ga, &gb, tile);
                    let ctx = format!("n={n} split={} level={level:?}", tile.split);
                    assert_eq!(bits(pa), bits(a), "channel a: {ctx}");
                    assert_eq!(bits(pb), bits(b), "channel b: {ctx}");
                }
            });
        }
    }

    /// `f64` value of a tile over `grid`, straight from the definition.
    fn reference(grid: &[Complex32], tile: &Tile<'_>) -> (f64, f64) {
        let mut acc = (0.0, 0.0);
        for (&s, &rw) in tile.row_starts.iter().zip(tile.row_w) {
            for (i, &wi) in tile.w.iter().enumerate() {
                let z = if i < tile.split { grid[s + i] } else { grid[s + i - tile.period] };
                acc.0 += rw as f64 * wi as f64 * z.re as f64;
                acc.1 += rw as f64 * wi as f64 * z.im as f64;
            }
        }
        acc
    }

    #[test]
    fn rows_ending_at_the_grid_end_read_nothing_past_it() {
        // The grid is a prefix of a NaN-poisoned buffer: a kernel that
        // loads even one element past the last row's end multiplies the
        // poison into its accumulators (NaN · 0 = NaN) and returns NaN.
        let period = 20usize;
        let len = 3 * period;
        let mut buf = demo_grid(len, 0.3);
        buf.extend(std::iter::repeat_n(Complex32::new(f32::NAN, f32::NAN), 8));
        let grid = &buf[..len];
        let other = demo_grid(len, 2.0);
        let row_w = [1.0f32, 0.5, 0.25];
        for n in 1..=17usize {
            let w: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
            // The last row ends exactly at the grid's end; wrapped tiles
            // end their leading segment there instead.
            let flat = [len - n, 0, len - n];
            let wrapped: Vec<[usize; 3]> =
                (1..n).map(|split| [len - split, period - split, len - split]).collect();
            let mut tiles =
                vec![Tile { row_starts: &flat, row_w: &row_w, w: &w, split: n, period: 0 }];
            for (starts, split) in wrapped.iter().zip(1..) {
                tiles.push(Tile { row_starts: starts, row_w: &row_w, w: &w, split, period });
            }
            for_each_isa(|level| {
                for tile in &tiles {
                    let ctx = format!("n={n} split={} level={level:?}", tile.split);
                    let got = gather_tile(grid, tile);
                    let (pa, pb) = gather_tile2(grid, &other, tile);
                    let (qa, qb) = gather_tile2(&other, grid, tile);
                    for z in [got, pa, pb, qa, qb] {
                        assert!(z.re.is_finite() && z.im.is_finite(), "{ctx}: {z:?}");
                    }
                    let (re, im) = reference(grid, tile);
                    let tol = 1e-5 * (1.0 + re.abs() + im.abs());
                    assert!((got.re as f64 - re).abs() <= tol, "{ctx}: {got:?} vs {re}");
                    assert!((got.im as f64 - im).abs() <= tol, "{ctx}: {got:?} vs {im}");
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "runs past the grid")]
    fn rejects_a_row_past_the_grid() {
        let grid = vec![Complex32::ONE; 10];
        let w = [1.0f32; 4];
        gather_tile(&grid, &Tile { row_starts: &[7], row_w: &[1.0], w: &w, split: 4, period: 0 });
    }

    #[test]
    #[should_panic(expected = "before the grid start")]
    fn rejects_a_wrap_before_the_grid_start() {
        let grid = vec![Complex32::ONE; 10];
        let w = [1.0f32; 4];
        let tile = Tile { row_starts: &[1], row_w: &[1.0], w: &w, split: 2, period: 10 };
        gather_tile(&grid, &tile);
    }
}
