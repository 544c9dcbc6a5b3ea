//! Small-radix DFT butterflies and the one Cooley–Tukey combine routine.
//!
//! Each butterfly computes an r-point DFT `s[k] = Σ_q t[q]·W_r^{qk}` with
//! `W_r = e^{sign·2πi/r}` (`sign = -1` forward, `+1` backward). Radix 2 and 4
//! are hand-specialized; every odd prime radix (3, 5, 7, 11, 13) runs the
//! symmetric-pair butterfly [`bfly_odd`] (defined in `nufft_simd::fft_rows`,
//! whose vector radix-3/5/7 stages run the same operation sequence per
//! lane), with compile-time cos/sin constants and plain multiply/add.
//!
//! [`combine`] is the single implementation of one combine level — twiddle
//! multiply plus butterfly over `r` sub-rows — shared by the recursive
//! ([`crate::plan`]), batched ([`crate::batch`]) and four-step
//! ([`crate::fourstep`]) paths, so the three agree bitwise by construction.

use nufft_math::Complex32;
use nufft_simd::fft_rows;
pub use nufft_simd::fft_rows::bfly_odd;

/// Combines whose sub-transform length `m` is at least this use the
/// dispatched SIMD row/column butterflies (`nufft_simd::fft_rows`) for the
/// radices that have them; smaller ones stay on the inline scalar loop — at
/// the bottom of the recursion there are many tiny combines (e.g. 256
/// radix-2 nodes with `m = 1` for n = 512) where dispatch overhead would
/// dominate. The regime depends on the stage alone (never on how many
/// elements one call covers), which is what keeps the three callers of
/// [`combine`] bitwise-equal.
pub(crate) const MIN_SIMD_M: usize = 4;

/// In-place 2-point butterfly.
#[inline(always)]
pub fn bfly2(t: &mut [Complex32]) {
    let (a, b) = (t[0], t[1]);
    t[0] = a + b;
    t[1] = a - b;
}

/// In-place 4-point DFT. `sign` is −1 for forward, +1 for backward.
#[inline(always)]
pub fn bfly4(t: &mut [Complex32], sign: f32) {
    let (a, b, c, d) = (t[0], t[1], t[2], t[3]);
    let s02 = a + c;
    let d02 = a - c;
    let s13 = b + d;
    let d13 = b - d;
    // sign·i·d13.
    let j = Complex32::new(-sign * d13.im, sign * d13.re);
    t[0] = s02 + s13;
    t[1] = d02 + j;
    t[2] = s02 - s13;
    t[3] = d02 - j;
}

/// Where one combine's sub-rows live: sub-row `q ∈ [0, r)` starts at
/// `base + q·step` and holds `kcount·lanes` elements, element `kk` of lane
/// `lane` at offset `kk·lanes + lane`. Its twiddle for digit `q ≥ 1` is
/// `tw[(q−1)·m + toff + kk]`, broadcast over the lanes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rows {
    pub(crate) base: usize,
    pub(crate) step: usize,
    pub(crate) toff: usize,
    pub(crate) kcount: usize,
    pub(crate) lanes: usize,
}

/// One Cooley–Tukey combine level over `d`: `X[k + m·k2] = Σ_q W^{qk}·Y_q[k]
/// · W_r^{q·k2}` for the `r` sub-rows described by `at`. `tw` is the stage's
/// twiddle table for the wanted direction (`(r−1)·m` entries), `forward`
/// selects the butterfly sign. `twiddled` says the caller already applied
/// the twiddles (the four-step gather hoists them; only valid in the SIMD
/// regime of radix 2/4, see [`hoists_twiddles`]).
///
/// The kernel regime depends only on `(r, m)`, and within a regime the
/// per-element arithmetic is the same for every `at` (rows and cols kernels
/// agree bitwise at a fixed ISA level), so any partition of a level into
/// calls produces identical bits.
#[inline(always)]
pub(crate) fn combine(
    r: usize,
    m: usize,
    tw: &[Complex32],
    forward: bool,
    twiddled: bool,
    d: &mut [Complex32],
    at: Rows,
) {
    let Rows { base, step, toff, kcount, lanes } = at;
    let len = kcount * lanes;
    debug_assert!(len <= step && base + (r - 1) * step + len <= d.len());
    debug_assert!(!twiddled || hoists_twiddles(r, m));
    if m >= MIN_SIMD_M && r == 2 {
        let (lo, hi) = d.split_at_mut(base + step);
        let (d0, d1) = (&mut lo[base..base + len], &mut hi[..len]);
        let tw = &tw[toff..toff + kcount];
        if twiddled {
            fft_rows::bfly2_nt(d0, d1);
        } else if lanes == 1 {
            fft_rows::bfly2_rows(d0, d1, tw);
        } else {
            fft_rows::bfly2_cols(d0, d1, tw, lanes);
        }
        return;
    }
    if m >= MIN_SIMD_M && r == 4 {
        let quad = &mut d[base..base + 3 * step + len];
        let (c0, rest) = quad.split_at_mut(step);
        let (c1, rest) = rest.split_at_mut(step);
        let (c2, c3) = rest.split_at_mut(step);
        let (d0, d1, d2, d3) = (&mut c0[..len], &mut c1[..len], &mut c2[..len], &mut c3[..len]);
        if twiddled {
            fft_rows::bfly4_nt(d0, d1, d2, d3, forward);
            return;
        }
        let tw1 = &tw[toff..toff + kcount];
        let tw2 = &tw[m + toff..m + toff + kcount];
        let tw3 = &tw[2 * m + toff..2 * m + toff + kcount];
        if lanes == 1 {
            fft_rows::bfly4_rows(d0, d1, d2, d3, tw1, tw2, tw3, forward);
        } else {
            fft_rows::bfly4_cols(d0, d1, d2, d3, tw1, tw2, tw3, lanes, forward);
        }
        return;
    }
    if m >= MIN_SIMD_M {
        match r {
            3 => return combine_odd_simd::<3>(d, tw, m, forward, at),
            5 => return combine_odd_simd::<5>(d, tw, m, forward, at),
            7 => return combine_odd_simd::<7>(d, tw, m, forward, at),
            _ => {}
        }
    }
    let sign = if forward { -1.0f32 } else { 1.0 };
    match r {
        2 => combine_scalar::<2>(d, tw, m, at, |t| bfly2(t)),
        3 => combine_scalar::<3>(d, tw, m, at, |t| bfly_odd(t, sign)),
        4 => combine_scalar::<4>(d, tw, m, at, |t| bfly4(t, sign)),
        5 => combine_scalar::<5>(d, tw, m, at, |t| bfly_odd(t, sign)),
        7 => combine_scalar::<7>(d, tw, m, at, |t| bfly_odd(t, sign)),
        11 => combine_scalar::<11>(d, tw, m, at, |t| bfly_odd(t, sign)),
        13 => combine_scalar::<13>(d, tw, m, at, |t| bfly_odd(t, sign)),
        _ => unreachable!("radix {r} is not a Cooley-Tukey radix"),
    }
}

/// Whether a level of radix `r` over sub-transforms of length `m` may have
/// its twiddle multiply hoisted out of [`combine`]: exactly the radix-2/4
/// SIMD regime, whose twiddle multiply is the complex multiply of
/// `nufft_simd::gather_chunks_cmul`, bit for bit.
pub(crate) fn hoists_twiddles(r: usize, m: usize) -> bool {
    (r == 2 || r == 4) && m >= MIN_SIMD_M
}

/// SIMD regime of [`combine`] for radix 3, 5 and 7.
fn combine_odd_simd<const R: usize>(
    d: &mut [Complex32],
    tw: &[Complex32],
    m: usize,
    forward: bool,
    at: Rows,
) {
    let Rows { base, step, toff, kcount, lanes } = at;
    let (d, tw) = (&mut d[base..], &tw[toff..]);
    if lanes == 1 {
        fft_rows::bfly_odd_rows::<R>(d, step, tw, m, kcount, forward);
    } else {
        fft_rows::bfly_odd_cols::<R>(d, step, tw, m, kcount, lanes, forward);
    }
}

/// Scalar regime of [`combine`]: plain complex twiddle multiply, then the
/// radix-`R` butterfly, one element at a time.
#[inline(always)]
fn combine_scalar<const R: usize>(
    d: &mut [Complex32],
    tw: &[Complex32],
    m: usize,
    at: Rows,
    bfly: impl Fn(&mut [Complex32; R]),
) {
    let Rows { base, step, toff, kcount, lanes } = at;
    let mut t = [Complex32::ZERO; R];
    for kk in 0..kcount {
        for lane in 0..lanes {
            let i = base + kk * lanes + lane;
            t[0] = d[i];
            for q in 1..R {
                t[q] = d[i + q * step] * tw[(q - 1) * m + toff + kk];
            }
            bfly(&mut t);
            for (q, &v) in t.iter().enumerate() {
                d[i + q * step] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_math::Complex64;

    fn naive_small(t: &[Complex32], sign: f64) -> Vec<Complex32> {
        let r = t.len();
        (0..r)
            .map(|k| {
                let mut acc = Complex64::ZERO;
                for (q, &v) in t.iter().enumerate() {
                    let w =
                        Complex64::cis(sign * core::f64::consts::TAU * (q * k) as f64 / r as f64);
                    acc += v.to_f64() * w;
                }
                acc.to_f32()
            })
            .collect()
    }

    fn demo(r: usize) -> Vec<Complex32> {
        (0..r).map(|i| Complex32::new(1.0 + i as f32, (i as f32) * 0.5 - 1.0)).collect()
    }

    fn check(got: &[Complex32], want: &[Complex32], what: &str) {
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g.re - w.re).abs() < 1e-4 && (g.im - w.im).abs() < 1e-4,
                "{what}: {g:?} vs {w:?}"
            );
        }
    }

    fn run_odd<const R: usize>(t: &mut [Complex32], sign: f32) {
        let arr: &mut [Complex32; R] = t.try_into().unwrap();
        bfly_odd(arr, sign);
    }

    #[test]
    fn specialized_butterflies_match_naive() {
        for r in [2usize, 3, 4, 5] {
            for sign in [-1.0, 1.0] {
                let mut t = demo(r);
                let want = naive_small(&t, sign);
                match r {
                    2 => bfly2(&mut t),
                    4 => bfly4(&mut t, sign as f32),
                    3 => run_odd::<3>(&mut t, sign as f32),
                    5 => run_odd::<5>(&mut t, sign as f32),
                    _ => unreachable!(),
                }
                check(&t, &want, &format!("radix {r} sign {sign}"));
            }
        }
    }

    /// The larger odd radices (formerly a root-table generic butterfly) run
    /// through the same const-generic `bfly_odd`, in both directions.
    #[test]
    fn generic_butterfly_matches_naive() {
        for r in [7usize, 11, 13] {
            for sign in [-1.0, 1.0] {
                let mut t = demo(r);
                let want = naive_small(&t, sign);
                match r {
                    7 => run_odd::<7>(&mut t, sign as f32),
                    11 => run_odd::<11>(&mut t, sign as f32),
                    13 => run_odd::<13>(&mut t, sign as f32),
                    _ => unreachable!(),
                }
                check(&t, &want, &format!("radix {r} sign {sign}"));
            }
        }
    }

    #[test]
    fn forward_backward_compose_to_scaled_identity() {
        let mut t = demo(4);
        let orig = t.clone();
        bfly4(&mut t, -1.0);
        bfly4(&mut t, 1.0);
        for (g, w) in t.iter().zip(&orig) {
            assert!((g.re - 4.0 * w.re).abs() < 1e-4 && (g.im - 4.0 * w.im).abs() < 1e-4);
        }
    }
}
