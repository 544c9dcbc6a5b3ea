//! Property tests: every dispatched kernel agrees with the scalar reference
//! on random inputs at every ISA level the host supports, within FP
//! reassociation tolerance. Runs on the `nufft-testkit` harness; a failure
//! prints a `NUFFT_PROP_SEED=...` replay seed.

use nufft_math::Complex32;
use nufft_simd::{
    accumulate, detect_isa, gather_row, gather_tile, scale_by_real, scatter_row, set_isa_override,
    IsaLevel, Tile,
};
use nufft_testkit::prop_check;
use std::sync::Mutex;

/// Serializes the process-global ISA override across test threads.
static ISA_LOCK: Mutex<()> = Mutex::new(());

fn scalar_scatter(dst: &mut [Complex32], w: &[f32], val: Complex32) {
    for (d, &wi) in dst.iter_mut().zip(w) {
        d.re += val.re * wi;
        d.im += val.im * wi;
    }
}

fn scalar_gather(src: &[Complex32], w: &[f32]) -> Complex32 {
    let mut acc = Complex32::ZERO;
    for (s, &wi) in src.iter().zip(w) {
        acc.re += s.re * wi;
        acc.im += s.im * wi;
    }
    acc
}

fn supported_levels() -> Vec<IsaLevel> {
    let detected = detect_isa();
    [IsaLevel::Scalar, IsaLevel::Sse2, IsaLevel::Avx2Fma]
        .into_iter()
        .filter(|&l| l <= detected)
        .collect()
}

#[test]
fn scatter_matches_reference() {
    prop_check("scatter_matches_reference", 0x51D_0001, 64, |rng| {
        let len = rng.gen_usize(0..24);
        let grid0 = rng.gen_c32_vec(len, 1.0);
        let w = rng.gen_f32_vec(len, -1.0..1.0);
        let val = rng.gen_c32(1.0);

        let mut want = grid0.clone();
        scalar_scatter(&mut want, &w, val);

        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            set_isa_override(level).unwrap();
            let mut got = grid0.clone();
            scatter_row(&mut got, &w, val);
            for (a, b) in got.iter().zip(&want) {
                assert!(
                    (a.re - b.re).abs() <= 1e-5 && (a.im - b.im).abs() <= 1e-5,
                    "level {level:?}: {a:?} vs {b:?}"
                );
            }
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

#[test]
fn gather_matches_reference() {
    prop_check("gather_matches_reference", 0x51D_0002, 64, |rng| {
        let grid = rng.gen_c32_vec(19, 100.0);
        let w = rng.gen_f32_vec(19, -2.0..2.0);
        let want = scalar_gather(&grid, &w);
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            set_isa_override(level).unwrap();
            let got = gather_row(&grid, &w);
            // Reassociation across ≤19 terms of magnitude ≤200.
            assert!(
                (got.re - want.re).abs() <= 2e-3 && (got.im - want.im).abs() <= 2e-3,
                "level {level:?}: {got:?} vs {want:?}"
            );
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

/// The whole-sample gather at every ISA level against an `f64` sum from
/// its definition: random tap counts 1..=17, row counts 1..=17², random
/// row starts and row weights, contiguous or wrapping after a random
/// split. The tolerance is relative to the sum of the terms' magnitudes,
/// which does not depend on the summation order.
#[test]
fn gather_tile_matches_f64_reference() {
    prop_check("gather_tile_matches_f64_reference", 0x51D_0007, 96, |rng| {
        let taps = rng.gen_usize(1..18);
        let rows = rng.gen_usize(1..17 * 17 + 1);
        let period = taps + rng.gen_usize(0..24);
        let lines = rng.gen_usize(1..40);
        let grid = rng.gen_c32_vec(period * lines, 10.0);
        let w = rng.gen_f32_vec(taps, -2.0..2.0);
        let row_w = rng.gen_f32_vec(rows, -1.0..1.0);
        let split = if rng.gen_bool() { taps } else { rng.gen_usize(1..taps + 1) };
        // Rows start `split` taps before the end of some grid line, so the
        // rest wrap to that line's start; contiguous rows start anywhere
        // they fit.
        let row_starts: Vec<usize> = (0..rows)
            .map(|_| {
                let line = rng.gen_usize(0..lines) * period;
                if split < taps {
                    line + period - split
                } else {
                    line + rng.gen_usize(0..period - taps + 1)
                }
            })
            .collect();
        let tile = Tile { row_starts: &row_starts, row_w: &row_w, w: &w, split, period };
        let (mut re, mut im, mut mag) = (0.0f64, 0.0f64, 0.0f64);
        for (&s, &rw) in row_starts.iter().zip(&row_w) {
            for (i, &wi) in w.iter().enumerate() {
                let z = if i < split { grid[s + i] } else { grid[s + i - period] };
                let f = rw as f64 * wi as f64;
                re += f * z.re as f64;
                im += f * z.im as f64;
                mag += f.abs() * (z.re.abs() + z.im.abs()) as f64;
            }
        }
        let tol = 1e-5 * (1.0 + mag);
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut levels = supported_levels();
        levels.insert(0, IsaLevel::StrictScalar);
        for level in levels {
            set_isa_override(level).unwrap();
            let got = gather_tile(&grid, &tile);
            assert!(
                (got.re as f64 - re).abs() <= tol && (got.im as f64 - im).abs() <= tol,
                "level {level:?} taps={taps} rows={rows} split={split}: {got:?} vs ({re}, {im})"
            );
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

#[test]
fn accumulate_matches_reference() {
    prop_check("accumulate_matches_reference", 0x51D_0003, 64, |rng| {
        let a = rng.gen_c32_vec(33, 100.0);
        let b = rng.gen_c32_vec(33, 100.0);
        let want: Vec<Complex32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            set_isa_override(level).unwrap();
            let mut got = a.clone();
            accumulate(&mut got, &b);
            assert_eq!(&got, &want, "level {level:?}");
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

#[test]
fn scale_matches_reference() {
    prop_check("scale_matches_reference", 0x51D_0004, 64, |rng| {
        let buf = rng.gen_c32_vec(21, 100.0);
        let s = rng.gen_f32_vec(21, -2.0..2.0);
        let want: Vec<Complex32> =
            buf.iter().zip(&s).map(|(&z, &si)| Complex32::new(z.re * si, z.im * si)).collect();
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for level in supported_levels() {
            set_isa_override(level).unwrap();
            let mut got = buf.clone();
            scale_by_real(&mut got, &s);
            assert_eq!(&got, &want, "level {level:?}");
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

/// FFT stage butterflies: at every ISA level the radix-2 row kernel matches
/// an f64 oracle, and the broadcast-twiddle column kernel is bit-identical
/// to the row kernel applied lane by lane (the batched-FFT contract).
#[test]
fn fft_butterflies_match_reference_and_cols_match_rows() {
    use nufft_simd::fft_rows::{bfly2_cols, bfly2_rows, bfly4_cols, bfly4_rows};
    prop_check("fft_butterflies_match_reference", 0x51D_0006, 48, |rng| {
        let m = rng.gen_usize(1..12);
        let b = rng.gen_usize(1..6);
        let tw: Vec<Complex32> = (0..m).map(|_| rng.gen_c32(1.0)).collect();
        let d0 = rng.gen_c32_vec(m, 10.0);
        let d1 = rng.gen_c32_vec(m, 10.0);
        let cols: Vec<Vec<Complex32>> = (0..4).map(|_| rng.gen_c32_vec(m * b, 10.0)).collect();
        let forward = rng.gen_bool();
        let _guard = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut levels = supported_levels();
        levels.insert(0, IsaLevel::StrictScalar);
        for level in levels {
            set_isa_override(level).unwrap();
            // Radix-2 rows vs f64 oracle.
            let (mut g0, mut g1) = (d0.clone(), d1.clone());
            bfly2_rows(&mut g0, &mut g1, &tw);
            for k in 0..m {
                let t = d1[k].to_f64() * tw[k].to_f64();
                let x = (d0[k].to_f64() + t).to_f32();
                let y = (d0[k].to_f64() - t).to_f32();
                assert!(
                    (g0[k].re - x.re).abs() <= 1e-4
                        && (g0[k].im - x.im).abs() <= 1e-4
                        && (g1[k].re - y.re).abs() <= 1e-4
                        && (g1[k].im - y.im).abs() <= 1e-4,
                    "level {level:?} k={k}"
                );
            }
            // Radix-2 and radix-4 cols vs lane-by-lane rows, bitwise.
            let tw2: Vec<Complex32> = tw.iter().map(|w| *w * *w).collect();
            let tw3: Vec<Complex32> = tw.iter().zip(&tw2).map(|(a, b)| *a * *b).collect();
            let mut c = cols.clone();
            {
                let [c0, c1, c2, c3] = &mut c[..] else { unreachable!() };
                bfly2_cols(c0, c1, &tw, b);
                bfly4_cols(c0, c1, c2, c3, &tw, &tw2, &tw3, b, forward);
            }
            let mut r = cols.clone();
            for lane in 0..b {
                let mut lanes: Vec<Vec<Complex32>> =
                    r.iter().map(|blk| (0..m).map(|k| blk[k * b + lane]).collect()).collect();
                {
                    let [l0, l1, l2, l3] = &mut lanes[..] else { unreachable!() };
                    bfly2_rows(l0, l1, &tw);
                    bfly4_rows(l0, l1, l2, l3, &tw, &tw2, &tw3, forward);
                }
                for (blk, lv) in r.iter_mut().zip(&lanes) {
                    for k in 0..m {
                        blk[k * b + lane] = lv[k];
                    }
                }
            }
            for (q, (cq, rq)) in c.iter().zip(&r).enumerate() {
                for (i, (x, y)) in cq.iter().zip(rq).enumerate() {
                    assert!(
                        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                        "level {level:?} cols/rows mismatch q={q} i={i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
        set_isa_override(detect_isa()).unwrap();
    });
}

#[test]
fn scatter_then_negate_round_trips() {
    prop_check("scatter_then_negate_round_trips", 0x51D_0005, 64, |rng| {
        // scatter(val) then scatter(-val) must restore the grid up to f32
        // round-off: x + p - p == x is NOT guaranteed elementwise.
        let grid = rng.gen_c32_vec(12, 100.0);
        let w = rng.gen_f32_vec(12, -2.0..2.0);
        let val = rng.gen_c32(5.0);
        let mut g = grid.clone();
        scatter_row(&mut g, &w, val);
        scatter_row(&mut g, &w, -val);
        for (a, b) in g.iter().zip(&grid) {
            assert!((a.re - b.re).abs() <= 1e-4 && (a.im - b.im).abs() <= 1e-4);
        }
    });
}
