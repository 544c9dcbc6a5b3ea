//! Output checks: bitwise replay, the direct-DTFT oracle on a seeded
//! subset of outputs, and the adjoint dot-product identity.

use nufft_math::error::rel_l2_c32;
use nufft_math::{Complex32, Complex64};
use nufft_testkit::Rng;

pub fn bitwise_eq(a: &[Complex32], b: &[Complex32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

pub fn all_bitwise_eq(a: &[Vec<Complex32>], b: &[Vec<Complex32>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bitwise_eq(x, y))
}

/// Relative L2 distance at most `1e-5`: equal up to f32 reordering of sums.
pub fn all_close(a: &[Vec<Complex32>], b: &[Vec<Complex32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.len() == y.len() && rel_l2_c32(x, y) <= 1e-5)
}

/// `k` distinct indices in `0..len`, drawn from `seed` and sorted.
pub fn subset(seed: u64, len: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x00c0_ffee_5eed);
    let mut idx: Vec<usize> = (0..len).collect();
    let k = k.min(len);
    for i in 0..k {
        let j = rng.gen_usize(i..len);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// Evaluates `f` on `threads` contiguous pieces of `idx` in parallel and
/// concatenates the results in order (the oracle is quadratic-cost).
pub fn par_reference<F>(idx: &[usize], threads: usize, f: F) -> Vec<Complex64>
where
    F: Fn(&[usize]) -> Vec<Complex64> + Sync,
{
    let chunk = idx.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = idx.chunks(chunk).map(|c| s.spawn(|| f(c))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
    })
}

/// Relative mismatch of the dot-product identity
/// `⟨A·x, y⟩ = ⟨x, Aᴴ·y⟩`, scaled by the larger side (as in
/// tests/stage_ops.rs), so a relative error in either operator shows at
/// its own size.
pub fn dot_mismatch(x: &[Complex32], ax: &[Complex32], y: &[Complex32], ahy: &[Complex32]) -> f64 {
    let dot = |a: &[Complex32], b: &[Complex32]| -> Complex64 {
        a.iter().zip(b).map(|(&p, &q)| p.to_f64().conj() * q.to_f64()).sum()
    };
    let (lhs, rhs) = (dot(ax, y), dot(x, ahy));
    (lhs - rhs).abs() / lhs.abs().max(rhs.abs()).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_is_seeded_and_distinct() {
        let a = subset(3, 1000, 40);
        assert_eq!(a, subset(3, 1000, 40));
        assert_ne!(a, subset(4, 1000, 40));
        let mut d = a.clone();
        d.dedup();
        assert_eq!(d.len(), 40);
    }

    #[test]
    fn dot_identity_holds_for_a_transpose_pair() {
        // A = diag(2i): Aᴴ = diag(-2i).
        let x = vec![Complex32::new(1.0, 2.0), Complex32::new(-0.5, 0.25)];
        let y = vec![Complex32::new(0.3, -1.0), Complex32::new(2.0, 0.5)];
        let a = |v: &[Complex32], s: f32| -> Vec<Complex32> {
            v.iter().map(|z| Complex32::new(-s * z.im, s * z.re)).collect()
        };
        assert!(dot_mismatch(&x, &a(&x, 2.0), &y, &a(&y, -2.0)) < 1e-7);
        assert!(dot_mismatch(&x, &a(&x, 2.0), &y, &a(&y, 2.0)) > 0.1);
    }
}
