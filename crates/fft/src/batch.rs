//! Batched (tiled) execution of Cooley–Tukey transforms over several lines
//! at once.
//!
//! The n-D transform applies a 1D FFT to every line of every axis. For a
//! strided axis the per-line path gathers one line at a time into a bounce
//! buffer — each gathered element touches a fresh cache line of which it
//! uses 8 bytes, and every twiddle is reloaded per line. The batched path
//! instead packs a tile of `b` *memory-adjacent* lines element-interleaved
//! (`tile[j·b + lane]` = element `j` of line `lane`; adjacent lines differ
//! by one in the innermost index, so each gather step is one contiguous
//! `b`-complex copy) and runs the whole Cooley–Tukey recursion across the
//! tile: every twiddle load is amortized over `b` lines and the column
//! butterflies in `nufft_simd::fft_rows` consume full SIMD vectors of
//! always-contiguous data.
//!
//! Bit-identity: at a fixed ISA level the column kernels perform the same
//! per-element arithmetic as the row kernels used by the per-line path, and
//! both paths run every level through the same `butterflies::combine`, so a
//! batched transform is bit-identical to transforming the same lines one at
//! a time. `crates/fft/tests/
//! proptest_fft.rs` pins this under every ISA override.

use crate::butterflies::{combine, Rows};
use crate::plan::{Direction, Fft, Stage};
use nufft_math::Complex32;

/// Backward-direction twiddle tables for a stage slice, indexed parallel to
/// the `stages` passed to [`recurse`]. Callers running a stage *suffix* (the
/// four-step sub-FFT pass) slice the plan's full tables with the same offset,
/// so `view[level]` always matches `stages[level]`.
pub(crate) type BwdView<'a> = &'a [Vec<Complex32>];

/// Transforms `b` interleaved lines held in `tile` (layout `[j·b + lane]`,
/// `tile.len() == plan.len()·b`) in place. `work` is scratch of the same
/// length.
///
/// # Panics
/// Panics (debug) if `plan` is not Cooley–Tukey or lengths mismatch; the
/// caller ([`crate::FftNd`]) guarantees both.
pub(crate) fn transform_tile(
    plan: &Fft,
    tile: &mut [Complex32],
    work: &mut [Complex32],
    b: usize,
    dir: Direction,
) {
    debug_assert!(plan.is_ct(), "batched tiles require a Cooley-Tukey plan");
    let n = plan.len();
    debug_assert_eq!(tile.len(), n * b);
    let work = &mut work[..n * b];
    work.copy_from_slice(tile);
    let bwd = match dir {
        Direction::Forward => None,
        Direction::Backward => Some(&plan.bwd_tables().twiddles[..]),
    };
    recurse(plan.stages(), 0, work, 0, 1, tile, b, bwd);
}

/// Decimation-in-time recursion over a `b`-line tile: the exact structure of
/// `Fft::recurse` with every element index scaled by `b` (line-interleaved
/// layout) and the combine loop running across lanes. Exposed crate-wide so
/// the four-step path (`crate::fourstep`) can run a stage *suffix* — the
/// greedy factorizer guarantees `stages[j..]` is exactly the stage list of a
/// plan for the suffix length, so the sub-FFT pass reuses these kernels
/// unchanged.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recurse(
    stages: &[Stage],
    level: usize,
    src: &[Complex32],
    off: usize,
    stride: usize,
    dst: &mut [Complex32],
    b: usize,
    bwd: Option<BwdView<'_>>,
) {
    if level == stages.len() {
        debug_assert_eq!(dst.len(), b);
        dst.copy_from_slice(&src[off * b..(off + 1) * b]);
        return;
    }
    let stage = &stages[level];
    let r = stage.radix;
    let m = stage.m;
    debug_assert_eq!(dst.len(), r * m * b);

    for q in 0..r {
        recurse(
            stages,
            level + 1,
            src,
            off + q * stride,
            stride * r,
            &mut dst[q * m * b..(q + 1) * m * b],
            b,
            bwd,
        );
    }

    let tw = match bwd {
        None => &stage.twiddles[..],
        Some(tws) => &tws[level][..],
    };
    let at = Rows { base: 0, step: m * b, toff: 0, kcount: m, lanes: b };
    combine(r, m, tw, bwd.is_none(), false, dst, at);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo(len: usize, salt: u32) -> Vec<Complex32> {
        (0..len)
            .map(|i| {
                let x = i as f32 * 0.17 + salt as f32;
                Complex32::new((0.9 * x).sin(), (0.4 * x).cos())
            })
            .collect()
    }

    /// A batched tile equals transforming each lane with the 1D plan — for
    /// every radix mix the factorizer produces, both directions.
    #[test]
    fn tile_matches_per_lane_bitwise() {
        for n in [1usize, 4, 8, 12, 16, 30, 60, 96, 120, 126] {
            let plan = Fft::new(n);
            for b in [2usize, 3, 4] {
                for dir in [Direction::Forward, Direction::Backward] {
                    let lanes: Vec<Vec<Complex32>> = (0..b as u32).map(|s| demo(n, s)).collect();
                    // Interleave into a tile and transform batched.
                    let mut tile = vec![Complex32::ZERO; n * b];
                    for (lane, l) in lanes.iter().enumerate() {
                        for j in 0..n {
                            tile[j * b + lane] = l[j];
                        }
                    }
                    let mut work = vec![Complex32::ZERO; n * b];
                    transform_tile(&plan, &mut tile, &mut work, b, dir);
                    // Transform each lane with the ordinary per-line plan.
                    let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
                    for (lane, l) in lanes.iter().enumerate() {
                        let mut want = l.clone();
                        plan.process_with_scratch(&mut want, &mut scratch, dir);
                        for j in 0..n {
                            let got = tile[j * b + lane];
                            assert!(
                                got.re.to_bits() == want[j].re.to_bits()
                                    && got.im.to_bits() == want[j].im.to_bits(),
                                "n={n} b={b} {dir:?} lane={lane} j={j}: {got:?} vs {:?}",
                                want[j]
                            );
                        }
                    }
                }
            }
        }
    }
}
